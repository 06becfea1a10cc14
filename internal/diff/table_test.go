package diff

import (
	"math/rand"
	"testing"
)

// lookup returns the offset t holds for fingerprint h, by the test
// scanRange applies inline: the bucket must be current and its tag h's.
func (t *krTable) lookup(h uint64) (int, bool) {
	e := t.entries[h&t.mask]
	if e>>32 != uint64(t.gen)<<16|h>>48 {
		return 0, false
	}
	return int(uint32(e)) - 1, true
}

// TestKRTableGenerationWrap drives prepare past the 16-bit generation
// wrap and checks that no entry buildTable wrote before the wrap is ever
// returned afterwards, including in the generations that share its
// number.
func TestKRTableGenerationWrap(t *testing.T) {
	const p = 16
	var tb krTable
	tb.prepare(10)
	const written = 8 // generations that write an entry before the wrap
	rng := rand.New(rand.NewSource(5))
	hashes := make([]uint64, written+1)
	for g := 1; g <= written; g++ {
		// A reference of g+1 anchors: the one at offset g is looked up.
		ref := make([]byte, g+p)
		rng.Read(ref)
		buildTable(&tb, ref, p, 1)
		hashes[g] = krHash(ref[g:])
		if r, ok := tb.lookup(hashes[g]); !ok || r != g {
			t.Fatalf("generation %d: fresh entry lookup = %d, %v", g, r, ok)
		}
		tb.prepare(10)
	}
	// Walk one full generation cycle past the wrap: every generation
	// number comes round again, the writers' ones included.
	for step := 0; step < 1<<16; step++ {
		for g := 1; g <= written; g++ {
			if r, ok := tb.lookup(hashes[g]); ok {
				t.Fatalf("%d prepares after the writes (generation %d): stale entry %d returned", step, tb.gen, r)
			}
		}
		tb.prepare(10)
	}
}

// TestKRTableTagRejects checks that a probe landing in an occupied bucket
// misses when the stored seed's fingerprint tag differs, and hits when
// only the bucket-independent middle bits differ (a true fingerprint
// collision on the tag, left for the byte compare to decide). The table
// is built by buildTable, so it also checks that a bucket keeps its first
// occurrence: a later anchor in it with another tag stays invisible.
func TestKRTableTagRejects(t *testing.T) {
	const p = 16
	ref := make([]byte, 4096+p-1)
	rand.New(rand.NewSource(6)).Read(ref)
	var tb krTable
	tb.prepare(10)
	buildTable(&tb, ref, p, 1)
	// The first anchor whose bucket an earlier anchor with another tag
	// already holds.
	first := map[uint64]int{} // bucket → its first anchor
	for r2 := 0; r2+p <= len(ref); r2++ {
		h2 := krHash(ref[r2 : r2+p])
		r1, seen := first[h2&tb.mask]
		if !seen {
			first[h2&tb.mask] = r2
			continue
		}
		h := krHash(ref[r1 : r1+p])
		if h>>48 == h2>>48 {
			continue
		}
		if r, ok := tb.lookup(h); !ok || r != r1 {
			t.Fatalf("lookup of the first anchor's fingerprint = %d, %v, want %d, true", r, ok, r1)
		}
		if _, ok := tb.lookup(h ^ 1<<63); ok {
			t.Fatal("same bucket, different tag: lookup hit")
		}
		if r, ok := tb.lookup(h ^ 1<<40); !ok || r != r1 {
			t.Fatalf("same bucket and tag: lookup = %d, %v, want %d, true", r, ok, r1)
		}
		if r, ok := tb.lookup(h2); ok {
			t.Fatalf("anchor %d, second into bucket %d with another tag, became visible as %d", r2, h2&tb.mask, r)
		}
		return
	}
	t.Fatal("no two anchors with different tags share a bucket")
}

// TestKRTableTagRejectionsOnSaturatedTable confirms the golden 4 MiB
// block-churn input exercises the tag: scanning its version probes many
// occupied buckets whose stored seed has a different tag.
func TestKRTableTagRejectionsOnSaturatedTable(t *testing.T) {
	ref, version := blockChurn(3, 4<<20)
	l := NewLinear()
	stride, bits := l.tableParams(len(ref))
	var tb krTable
	tb.prepare(bits)
	buildTable(&tb, ref, l.seedLen, stride)
	rejected := 0
	vh := newKRHasher(l.seedLen)
	vh.init(version[:l.seedLen])
	for v := 0; v+l.seedLen < len(version); v++ {
		e := tb.entries[vh.hash&tb.mask]
		if _, hit := tb.lookup(vh.hash); uint16(e>>48) == tb.gen && !hit {
			rejected++
		}
		vh.roll(version[v], version[v+l.seedLen])
	}
	if rejected < len(version)/2 {
		t.Fatalf("%d tag rejections over %d probes: the table is not saturated", rejected, len(version))
	}
}
