package delta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/interval"
)

// genSafeDelta generates an in-place-safe delta by construction: the
// version is partitioned into random write intervals, commands are emitted
// in a random order, and every copy reads only offsets that no earlier
// command has written. This gives the apply engines a much wider space of
// safe inputs than the converter alone produces.
func genSafeDelta(rng *rand.Rand, refLen int64) *Delta {
	versionLen := rng.Int63n(refLen) + refLen/2 // between 0.5x and 1.5x
	d := &Delta{RefLen: refLen, VersionLen: versionLen}

	// Partition [0, versionLen) into chunks.
	var bounds []int64
	for at := int64(0); at < versionLen; {
		n := rng.Int63n(versionLen/4+1) + 1
		if at+n > versionLen {
			n = versionLen - at
		}
		bounds = append(bounds, at, at+n)
		at += n
	}
	// Shuffle the chunk order.
	order := rng.Perm(len(bounds) / 2)

	written := interval.NewSet()
	for _, oi := range order {
		lo, hi := bounds[2*oi], bounds[2*oi+1]
		length := hi - lo
		// Try to place a copy whose read interval avoids everything
		// written so far; fall back to an add.
		placed := false
		for attempt := 0; attempt < 8 && length <= refLen; attempt++ {
			from := rng.Int63n(refLen - length + 1)
			if !written.Overlaps(interval.FromRange(from, length)) {
				d.Commands = append(d.Commands, NewCopy(from, lo, length))
				placed = true
				break
			}
		}
		if !placed {
			data := make([]byte, length)
			rng.Read(data)
			d.Commands = append(d.Commands, NewAdd(lo, data))
		}
		written.Add(interval.FromRange(lo, length))
	}
	return d
}

func TestQuickSafeGeneratorProducesSafeDeltas(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := genSafeDelta(rng, rng.Int63n(4096)+64)
		if d.Validate() != nil {
			return false
		}
		return d.CheckInPlace() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickApplyInPlaceEquivalence is the central engine property: on any
// in-place-safe delta, the single-buffer application and the scratch-space
// application produce identical versions, across buffer granularities.
func TestQuickApplyInPlaceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		refLen := rng.Int63n(4096) + 64
		ref := make([]byte, refLen)
		rng.Read(ref)
		d := genSafeDelta(rng, refLen)
		want, err := d.Apply(ref)
		if err != nil {
			return false
		}
		for _, bufSize := range []int{1, 7, 256, 4096} {
			buf := make([]byte, d.InPlaceBufLen())
			copy(buf, ref)
			if err := d.ApplyInPlaceBuf(buf, bufSize); err != nil {
				return false
			}
			if !bytes.Equal(buf[:d.VersionLen], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
