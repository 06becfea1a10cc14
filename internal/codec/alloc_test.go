package codec

import (
	"bytes"
	"io"
	"math/rand"
	"runtime/debug"
	"testing"

	"ipdelta/internal/delta"
)

// scatteredDelta builds an in-place shaped delta of n commands: record
// copies listed in a shuffled (dependency-like) order, then the adds — the
// shape the converter hands the compact encoder on every serving path.
func scatteredDelta(n int) *delta.Delta {
	rng := rand.New(rand.NewSource(17))
	const rec = 128
	d := &delta.Delta{RefLen: int64(n) * rec, VersionLen: int64(n) * rec}
	var adds []delta.Command
	for k := 0; k < n; k++ {
		to := int64(k) * rec
		if k%5 == 0 {
			data := make([]byte, rec)
			rng.Read(data)
			adds = append(adds, delta.NewAdd(to, data))
			continue
		}
		d.Commands = append(d.Commands, delta.NewCopy(rng.Int63n(d.RefLen-rec+1), to, rec))
	}
	rng.Shuffle(len(d.Commands), func(i, j int) { d.Commands[i], d.Commands[j] = d.Commands[j], d.Commands[i] })
	d.Commands = append(d.Commands, adds...)
	return d
}

// TestEncodeCompactAllocs is the allocation gate for compact encoding:
// the writer with its buffer and the validator's spans are pooled, so an
// encode into a reused buffer allocates nothing, and nothing scales with
// the command count (each varint used to allocate through the hash
// interface, and the body split copied both sections).
func TestEncodeCompactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pools
	d := scatteredDelta(4500)
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if _, err := Encode(&buf, d, FormatCompact); err != nil {
			t.Fatalf("encode: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compact Encode of %d commands allocates %.1f times per call, want 0", len(d.Commands), allocs)
	}
}

// growRecorder is a bytes.Buffer that records each Grow and the
// capacity it left.
type growRecorder struct {
	bytes.Buffer
	grows, caps []int
}

func (g *growRecorder) Grow(n int) {
	g.Buffer.Grow(n)
	g.grows = append(g.grows, n)
	g.caps = append(g.caps, g.Cap())
}

// TestEncodeGrowsBufferOnce checks the size hint: Encode grows a writer
// that can grow once, by exactly the encoding's size, and the encoding
// then fits without the buffer growing again.
func TestEncodeGrowsBufferOnce(t *testing.T) {
	d := scatteredDelta(4500)
	for _, f := range []Format{FormatCompact, FormatOffsets, FormatScratch} {
		want, err := Size(d, f)
		if err != nil {
			t.Fatal(err)
		}
		var g growRecorder
		if _, err := Encode(&g, d, f); err != nil {
			t.Fatalf("format %d: encode: %v", f, err)
		}
		if len(g.grows) != 1 || int64(g.grows[0]) != want || int64(g.Len()) != want || g.Cap() != g.caps[0] {
			t.Errorf("format %d: grows %v to capacities %v, then encodes %d bytes at capacity %d; want one grow by %d",
				f, g.grows, g.caps, g.Len(), g.Cap(), want)
		}
	}
}

// TestDecodeStreamingAllocs is the allocation gate for the device's decode
// path: streaming a whole compact delta through NextStreaming, payloads
// included, costs one allocation, the Decoder with its read buffer, and
// nothing per command. A Decoder reused through Reset costs none.
func TestDecodeStreamingAllocs(t *testing.T) {
	d := scatteredDelta(4500)
	var enc bytes.Buffer
	if _, err := Encode(&enc, d, FormatCompact); err != nil {
		t.Fatal(err)
	}
	wire := enc.Bytes()
	r := bytes.NewReader(wire)
	work := make([]byte, 256)
	drain := func(dec *Decoder) {
		for {
			c, payload, err := dec.NextStreaming()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			if payload != nil {
				if _, err := io.ReadFull(payload, work[:c.Length]); err != nil {
					t.Fatalf("payload: %v", err)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(wire)
		dec, err := NewDecoder(r)
		if err != nil {
			t.Fatalf("decoder: %v", err)
		}
		drain(dec)
	})
	if allocs > 1 {
		t.Fatalf("streaming decode of %d commands allocates %.1f times per call, want <= 1", len(d.Commands), allocs)
	}
	var dec Decoder
	allocs = testing.AllocsPerRun(20, func() {
		r.Reset(wire)
		if err := dec.Reset(r); err != nil {
			t.Fatalf("reset: %v", err)
		}
		drain(&dec)
	})
	if allocs != 0 {
		t.Fatalf("streaming decode of %d commands on a reused Decoder allocates %.1f times per call, want 0", len(d.Commands), allocs)
	}
}
