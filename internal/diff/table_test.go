package diff

import "testing"

// TestKRTableGenerationWrap drives prepare past the 16-bit generation
// wrap and checks that no entry written before the wrap is ever returned
// afterwards, including in the generations that share its number.
func TestKRTableGenerationWrap(t *testing.T) {
	var tb krTable
	tb.prepare(10)
	const written = 8 // generations that write an entry before the wrap
	hashOf := func(g int) uint64 { return uint64(g)<<50 | uint64(g) }
	for g := 1; g <= written; g++ {
		tb.insert(hashOf(g), g)
		if r, ok := tb.lookup(hashOf(g)); !ok || r != g {
			t.Fatalf("generation %d: fresh entry lookup = %d, %v", g, r, ok)
		}
		tb.prepare(10)
	}
	// Walk one full generation cycle past the wrap: every generation
	// number comes round again, the writers' ones included.
	for step := 0; step < 1<<16; step++ {
		for g := 1; g <= written; g++ {
			if r, ok := tb.lookup(hashOf(g)); ok {
				t.Fatalf("%d prepares after the writes (generation %d): stale entry %d returned", step, tb.gen, r)
			}
		}
		tb.prepare(10)
	}
}

// TestKRTableTagRejects checks that a probe landing in an occupied bucket
// misses when the stored seed's fingerprint tag differs, and hits when
// only the bucket-independent middle bits differ (a true fingerprint
// collision on the tag, left for the byte compare to decide).
func TestKRTableTagRejects(t *testing.T) {
	var tb krTable
	tb.prepare(10)
	const h = 0xABCD_0000_0000_0123
	tb.insert(h, 42)
	if r, ok := tb.lookup(h); !ok || r != 42 {
		t.Fatalf("lookup of the inserted fingerprint = %d, %v", r, ok)
	}
	if _, ok := tb.lookup(h ^ 1<<63); ok {
		t.Fatal("same bucket, different tag: lookup hit")
	}
	if r, ok := tb.lookup(h ^ 1<<40); !ok || r != 42 {
		t.Fatalf("same bucket and tag: lookup = %d, %v, want 42, true", r, ok)
	}
	// First occurrence wins: a later seed in the same bucket with another
	// tag neither replaces the entry nor becomes visible.
	tb.insert(h^1<<63, 7)
	if _, ok := tb.lookup(h ^ 1<<63); ok {
		t.Fatal("second insert into an occupied bucket became visible")
	}
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
		if uint16(e>>48) == tb.gen && e>>32 != tb.key(vh.hash) {
			rejected++
		}
		vh.roll(version[v], version[v+l.seedLen])
	}
	if rejected < len(version)/2 {
		t.Fatalf("%d tag rejections over %d probes: the table is not saturated", rejected, len(version))
	}
}
