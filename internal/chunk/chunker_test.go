package chunk

import (
	"bytes"
	"math/rand"
	"testing"
)

// splitAll returns the chunk boundaries (cumulative end offsets) and
// chunk copies of data.
func splitAll(t testing.TB, c *Chunker, data []byte) (cuts []int, chunks [][]byte) {
	t.Helper()
	off := 0
	c.Split(data, func(ch []byte) {
		off += len(ch)
		cuts = append(cuts, off)
		chunks = append(chunks, append([]byte(nil), ch...))
	})
	return cuts, chunks
}

func TestChunkerBoundsAndCoverage(t *testing.T) {
	c, err := NewChunker(Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Params()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	cuts, chunks := splitAll(t, c, data)
	if len(cuts) == 0 || cuts[len(cuts)-1] != len(data) {
		t.Fatalf("chunks do not cover the input: %v", cuts)
	}
	var rejoined []byte
	for k, ch := range chunks {
		if len(ch) > p.Max {
			t.Fatalf("chunk %d exceeds Max: %d > %d", k, len(ch), p.Max)
		}
		if k < len(chunks)-1 && len(ch) < p.Min {
			t.Fatalf("non-final chunk %d below Min: %d < %d", k, len(ch), p.Min)
		}
		rejoined = append(rejoined, ch...)
	}
	if !bytes.Equal(rejoined, data) {
		t.Fatal("concatenated chunks do not reproduce the input")
	}
	// The average should land within a factor of two of the target on
	// random data — a sanity bound, not a statistical claim.
	avg := len(data) / len(chunks)
	if avg < p.Avg/2 || avg > p.Avg*2 {
		t.Fatalf("average chunk size %d is far from target %d", avg, p.Avg)
	}
}

func TestChunkerDeterministic(t *testing.T) {
	c, _ := NewChunker(Params{})
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(7)).Read(data)
	cuts1, _ := splitAll(t, c, data)
	cuts2, _ := splitAll(t, c, data)
	if len(cuts1) != len(cuts2) {
		t.Fatal("same input produced different cut counts")
	}
	for i := range cuts1 {
		if cuts1[i] != cuts2[i] {
			t.Fatalf("cut %d differs: %d vs %d", i, cuts1[i], cuts2[i])
		}
	}
}

func TestChunkerParamValidation(t *testing.T) {
	bad := []Params{
		{Min: 16, Avg: 8 << 10, Max: 64 << 10},   // Min too small
		{Min: 4 << 10, Avg: 2 << 10, Max: 64000}, // Min > Avg
		{Min: 2 << 10, Avg: 64 << 10, Max: 8192}, // Avg > Max
		{Min: 2 << 10, Avg: 3000, Max: 64 << 10}, // Avg not a power of two
		{Min: -1, Avg: 8 << 10, Max: 64 << 10},   // negative
		{Min: 2 << 10, Avg: 8 << 10, Max: -1},    // negative max
	}
	for _, p := range bad {
		if _, err := NewChunker(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if _, err := NewChunker(Params{Min: 512, Avg: 4096, Max: 16 << 10}); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

// TestChunkerLocality is the property the whole dedup win rests on: for
// a random insert, delete, or overwrite at a random offset, every cut
// point outside a bounded window around the edit is byte-identical
// between the original and edited streams. Cut decisions depend only on
// the bytes since the previous cut, so the streams must resynchronize
// within a few Max-size chunks of the edit.
func TestChunkerLocality(t *testing.T) {
	c, _ := NewChunker(Params{Min: 512, Avg: 2048, Max: 8192})
	p := c.Params()
	// Resync is content-probabilistic; W = 8 max-chunks of slack on each
	// side is far beyond observed resync distance on random data, and the
	// seeds are fixed so the test is deterministic.
	window := 8 * p.Max
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 512<<10)
	rng.Read(data)

	for trial := 0; trial < 60; trial++ {
		editPos := rng.Intn(len(data) - 1024)
		editLen := 1 + rng.Intn(700)
		var edited []byte
		var shift int // how much offsets after the edit moved
		switch trial % 3 {
		case 0: // insert
			ins := make([]byte, editLen)
			rng.Read(ins)
			edited = append(append(append([]byte(nil), data[:editPos]...), ins...), data[editPos:]...)
			shift = editLen
		case 1: // delete
			edited = append(append([]byte(nil), data[:editPos]...), data[editPos+editLen:]...)
			shift = -editLen
		default: // overwrite
			edited = append([]byte(nil), data...)
			rng.Read(edited[editPos : editPos+editLen])
			shift = 0
		}
		origCuts, _ := splitAll(t, c, data)
		editCuts, _ := splitAll(t, c, edited)

		// Cuts strictly before the edit window must be identical.
		var origBefore, editBefore []int
		for _, x := range origCuts {
			if x < editPos-window {
				origBefore = append(origBefore, x)
			}
		}
		for _, x := range editCuts {
			if x < editPos-window {
				editBefore = append(editBefore, x)
			}
		}
		if len(origBefore) != len(editBefore) {
			t.Fatalf("trial %d: cut count before edit differs (%d vs %d)", trial, len(origBefore), len(editBefore))
		}
		for i := range origBefore {
			if origBefore[i] != editBefore[i] {
				t.Fatalf("trial %d: pre-edit cut %d moved: %d -> %d", trial, i, origBefore[i], editBefore[i])
			}
		}
		// Cuts after the edit window must be identical modulo the length
		// shift. Compare the sets (as sorted slices).
		after := func(cuts []int, lo int, delta int) []int {
			var out []int
			for _, x := range cuts {
				if x > lo {
					out = append(out, x-delta)
				}
			}
			return out
		}
		origAfter := after(origCuts, editPos+editLen+window, 0)
		editAfter := after(editCuts, editPos+editLen+window+shift, shift)
		if len(origAfter) != len(editAfter) {
			t.Fatalf("trial %d (edit at %d len %d shift %d): post-edit cut count differs (%d vs %d)",
				trial, editPos, editLen, shift, len(origAfter), len(editAfter))
		}
		for i := range origAfter {
			if origAfter[i] != editAfter[i] {
				t.Fatalf("trial %d: post-edit cut %d differs: %d vs %d", trial, i, origAfter[i], editAfter[i])
			}
		}
	}
}

// TestSplitAllocs gates the cut kernel: splitting with a no-op emitter
// performs no allocations in steady state.
func TestSplitAllocs(t *testing.T) {
	c, _ := NewChunker(Params{})
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(9)).Read(data)
	sink := 0
	emit := func(ch []byte) { sink += len(ch) }
	if n := testing.AllocsPerRun(50, func() { c.Split(data, emit) }); n > 0 {
		t.Fatalf("Split allocates %v per run", n)
	}
	if sink == 0 {
		t.Fatal("emitter never ran")
	}
}

func BenchmarkChunkSplit(b *testing.B) {
	c, _ := NewChunker(Params{})
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		c.Split(data, func(ch []byte) { sink += len(ch) })
	}
	_ = sink
}
