package diff

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/delta"
)

// The byte-loop oracle: the Karp–Rabin kernel as it was before block
// fingerprints, reverse-order builds and word-wise extension. Every
// speedup of the kernel must leave its output equal to this one's.

// oracleBuild inserts the anchors front to back, each only into a bucket
// not yet written this generation, so every bucket keeps its first
// occurrence.
func oracleBuild(t *krTable, ref []byte, p, stride int) {
	for r := 0; r+p <= len(ref); r += stride {
		h := krHash(ref[r : r+p])
		if b := h & t.mask; uint16(t.entries[b]>>48) != t.gen {
			t.entries[b] = (uint64(t.gen)<<16|h>>48)<<32 | uint64(uint32(r+1))
		}
	}
}

// oracleForward is matchForward a byte at a time.
func oracleForward(ref, version []byte, r, v int) int {
	n := 0
	for r+n < len(ref) && v+n < len(version) && ref[r+n] == version[v+n] {
		n++
	}
	return n
}

// oracleBackward is matchBackward a byte at a time.
func oracleBackward(ref, version []byte, r, v, maxBack int) int {
	n := 0
	for n < maxBack && r-n-1 >= 0 && v-n-1 >= 0 && ref[r-n-1] == version[v-n-1] {
		n++
	}
	return n
}

// oracleScan is scanRange rolling the fingerprint one byte per position
// and extending matches a byte at a time.
func oracleScan(t *krTable, e *emitter, ref, version []byte, p int) {
	if len(version) < p {
		e.literal(version)
		return
	}
	v, lit := 0, 0
	vh := newKRHasher(p)
	vh.init(version[:p])
	for {
		if r, ok := t.lookup(vh.hash); ok && bytes.Equal(ref[r:r+p], version[v:v+p]) {
			fwd := p + oracleForward(ref, version, r+p, v+p)
			back := oracleBackward(ref, version, r, v, v-lit)
			e.literal(version[lit : v-back])
			e.copyCmd(int64(r-back), int64(fwd+back))
			v += fwd
			lit = v
			if v+p > len(version) {
				break
			}
			vh.init(version[v : v+p])
			continue
		}
		if v+1+p > len(version) {
			break
		}
		vh.roll(version[v], version[v+p])
		v++
	}
	e.literal(version[lit:])
}

// oracleLinear returns the commands Linear.Diff must emit for the pair.
func oracleLinear(l *Linear, ref, version []byte) []delta.Command {
	var e emitter
	p := l.seedLen
	switch {
	case len(version) == 0:
	case len(ref) < p || len(version) < p:
		e.literal(version)
	default:
		stride, bits := l.tableParams(len(ref))
		var t krTable
		t.prepare(bits)
		oracleBuild(&t, ref, p, stride)
		oracleScan(&t, &e, ref, version, p)
	}
	return e.finish()
}

// oracleRecipes returns the commands DiffRecipes must emit: its own plan,
// with each unmatched run windowed as diffRun windows it and diffed by
// the oracle kernel.
func oracleRecipes(t *testing.T, rd *RecipeDiffer, oldR, newR chunk.Recipe, src chunk.Source) []delta.Command {
	t.Helper()
	st := &recipeState{oldOff: make(map[chunk.ID]int64)}
	rd.plan(st, oldR, newR)
	p := rd.seedLen
	var e emitter
	var tb krTable
	for _, s := range st.steps {
		if s.run < 0 {
			e.copyCmd(s.from, s.n)
			continue
		}
		run := st.runs[s.run]
		win, err := appendRecipeRange(nil, oldR, st.oldStarts, src, run.gapLo, run.gapLo+min(run.gapHi-run.gapLo, int64(rd.windowCap)))
		if err != nil {
			t.Fatal(err)
		}
		haveTable := len(win) >= p
		if haveTable {
			stride := strideFor(len(win) - p + 1)
			tb.prepare(tableBitsFor(rd.maxBits, (len(win)-p+1+stride-1)/stride))
			oracleBuild(&tb, win, p, stride)
		}
		var seg []byte
		flush := func() {
			if !haveTable {
				e.literal(seg)
			} else {
				mark := len(e.cmds)
				oracleScan(&tb, &e, win, seg, p)
				for k := mark; k < len(e.cmds); k++ {
					if e.cmds[k].Op == delta.OpCopy {
						e.cmds[k].From += run.gapLo
					}
				}
			}
			seg = seg[:0]
		}
		for _, c := range newR.Chunks[run.a:run.b] {
			data, err := src.Chunk(c.ID)
			if err != nil {
				t.Fatal(err)
			}
			if seg = append(seg, data...); len(seg) >= rd.windowCap {
				flush()
			}
		}
		flush()
	}
	return e.finish()
}

// sameCommands reports the first difference between two command lists.
func sameCommands(got, want []delta.Command) error {
	for k := range min(len(got), len(want)) {
		g, w := got[k], want[k]
		if g.Op != w.Op || g.From != w.From || g.To != w.To || g.Length != w.Length || !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("command %d of %d is %v %d→%d+%d, oracle's %v %d→%d+%d", k, len(got), g.Op, g.From, g.To, g.Length, w.Op, w.From, w.To, w.Length)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d commands, the oracle %d", len(got), len(want))
	}
	return nil
}

// plantedPair returns a reference of size bytes and a version assembled
// from pieces of it, fresh bytes and single-byte edits. A small alphabet
// makes many seeds repeat, so which occurrence a bucket keeps matters.
func plantedPair(rng *rand.Rand, size, pieces int, alphabet byte) (ref, version []byte) {
	ref = make([]byte, size)
	rng.Read(ref)
	if alphabet > 0 {
		for k := range ref {
			ref[k] %= alphabet
		}
	}
	for range pieces {
		switch n := 1 + rng.Intn(max(1, size/max(1, pieces))*2); rng.Intn(4) {
		case 0: // fresh bytes
			fresh := make([]byte, min(n, 64))
			rng.Read(fresh)
			version = append(version, fresh...)
		case 1: // a byte changed at the seam of the last piece
			version = append(version, byte(rng.Intn(256)))
		default: // a piece of the reference
			if size > 0 {
				from := rng.Intn(size)
				version = append(version, ref[from:min(size, from+n)]...)
			}
		}
	}
	return ref, version
}

// TestBuildTableMatchesFirstOccurrence: the reverse-order blind-store
// build leaves every entry equal to the first-occurrence insert loop's,
// at every stride, around every block edge, on tables reused across
// generations and sizes.
func TestBuildTableMatchesFirstOccurrence(t *testing.T) {
	const p = 16
	rng := rand.New(rand.NewSource(7))
	var got, want krTable
	for _, stride := range []int{1, 2, 4, 8, 16} {
		for _, n := range []int{0, p - 1, p, krBlock - 1, krBlock, krBlock + p, 5*krBlock + 3} {
			for _, alphabet := range []byte{0, 2} {
				ref := make([]byte, n)
				rng.Read(ref)
				if alphabet > 0 {
					for k := range ref {
						ref[k] %= alphabet
					}
				}
				bits := uint(10 + rng.Intn(4))
				got.prepare(bits)
				want.prepare(bits)
				buildTable(&got, ref, p, stride)
				oracleBuild(&want, ref, p, stride)
				for b := range want.entries {
					if got.entries[b] != want.entries[b] {
						t.Fatalf("stride %d, %d bytes, alphabet %d, generation %d: bucket %d holds %#x, first-occurrence build %#x",
							stride, n, alphabet, got.gen, b, got.entries[b], want.entries[b])
					}
				}
			}
		}
	}
}

// TestKRFillMatchesKRHash: every fingerprint of a block equals krHash of
// its window, for blocks short enough to run on one lane and long enough
// to split, at several seed lengths.
func TestKRFillMatchesKRHash(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var fp [krBlock]uint64
	for _, p := range []int{4, 7, 16, 31} {
		for _, n := range []int{1, 2, 31, 32, 33, 63, 64, 65, 127, 1000, krBlock - 1, krBlock} {
			b := make([]byte, n+p-1)
			rng.Read(b)
			krFill(fp[:n], b, p, krPowP(p))
			for i := range n {
				if want := krHash(b[i : i+p]); fp[i] != want {
					t.Fatalf("p %d, block %d: fingerprint %d is %#x, krHash %#x", p, n, i, fp[i], want)
				}
			}
		}
	}
}

// TestMatchHelpersMatchByteLoops: the word-wise extensions agree with the
// byte loops at every alignment, with the first difference at every
// offset (inside the last, partial word too) or none, and under every
// maxBack cap.
func TestMatchHelpersMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 40} {
		common := make([]byte, n)
		rng.Read(common)
		for ra := range 9 {
			for va := range 9 {
				for diffAt := 0; diffAt <= n; diffAt++ {
					ref := append(append(make([]byte, ra), common...), make([]byte, ra)...)
					version := append(append(make([]byte, va), common...), make([]byte, 3)...)
					rng.Read(ref[:ra])
					rng.Read(version[:va])
					if diffAt < n {
						version[va+diffAt] ^= 0x80
					}
					if got, want := matchForward(ref, version, ra, va), oracleForward(ref, version, ra, va); got != want {
						t.Fatalf("forward: n %d, alignments %d/%d, difference at %d: %d, byte loop %d", n, ra, va, diffAt, got, want)
					}
					// Backwards from the end of the common bytes; a
					// difference at diffAt is n-diffAt-1 bytes back.
					for _, maxBack := range []int{-1, 0, 1, n / 2, n - 1, n, n + 9} {
						got := matchBackward(ref, version, ra+n, va+n, maxBack)
						if want := oracleBackward(ref, version, ra+n, va+n, maxBack); got != want {
							t.Fatalf("backward: n %d, alignments %d/%d, difference at %d, maxBack %d: %d, byte loop %d", n, ra, va, diffAt, maxBack, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLinearMatchesOracle runs Linear.Diff against the oracle at sizes
// that pick each indexing stride: 1, 2, 4 and 8.
func TestLinearMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, size := range []int{5000, 80 << 10, 300 << 10, 1100 << 10} {
		for _, alphabet := range []byte{0, 3} {
			ref, version := plantedPair(rng, size, 40, alphabet)
			l := NewLinear()
			d, err := l.Diff(ref, version)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCommands(d.Commands, oracleLinear(l, ref, version)); err != nil {
				stride, _ := l.tableParams(size)
				t.Fatalf("%d bytes (stride %d), alphabet %d: %v", size, stride, alphabet, err)
			}
		}
	}
}

// FuzzKernelMatchesReference: on a random reference and a version with
// planted copies of it, Linear.Diff and DiffRecipes over a random
// chunking emit exactly the commands of the byte-loop oracle.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(int64(1), uint32(4000), uint8(12), uint8(12), uint8(0), uint8(0), uint16(300))
	f.Add(int64(2), uint32(70000), uint8(30), uint8(0), uint8(3), uint8(1), uint16(5000))
	f.Add(int64(3), uint32(17), uint8(3), uint8(1), uint8(2), uint8(2), uint16(0))
	f.Add(int64(4), uint32(0), uint8(4), uint8(3), uint8(0), uint8(3), uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, size uint32, pieces, seedLen, alphabet, chunkShift uint8, window uint16) {
		rng := rand.New(rand.NewSource(seed))
		ref, version := plantedPair(rng, int(size%(300<<10)), 1+int(pieces%64), alphabet%5)
		p := 4 + int(seedLen%29)

		l := NewLinear(WithSeedLen(p), WithTableBits(uint(8+seed&15)))
		d, err := l.Diff(ref, version)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCommands(d.Commands, oracleLinear(l, ref, version)); err != nil {
			t.Fatalf("Linear: %v", err)
		}

		k := int(chunkShift % 4)
		ck, err := chunk.NewChunker(chunk.Params{Min: 64 << k, Avg: 256 << k, Max: 1024 << k})
		if err != nil {
			t.Fatal(err)
		}
		cs := chunk.NewStore()
		oldR, newR := cs.IngestAll(ck, ref), cs.IngestAll(ck, version)
		rd := NewRecipeDiffer()
		rd.seedLen = p
		rd.windowCap = p + int(window)
		rd.maxBits = uint(10 + seed&7)
		rdd, err := rd.DiffRecipes(oldR, newR, cs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCommands(rdd.Commands, oracleRecipes(t, rd, oldR, newR, cs)); err != nil {
			t.Fatalf("DiffRecipes: %v", err)
		}
	})
}

// BenchmarkKernelBuildTable measures the fingerprint-table build alone, at
// the stride tableParams picks for each size: 1 at 64 KiB, 4 at 1 MiB and
// 8 at 4 MiB.
func BenchmarkKernelBuildTable(b *testing.B) {
	l := NewLinear()
	for _, size := range []int{64 << 10, 1 << 20, 4 << 20} {
		ref := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(ref)
		stride, bits := l.tableParams(size)
		b.Run(fmt.Sprintf("%dKiB/stride%d", size>>10, stride), func(b *testing.B) {
			var tb krTable
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.prepare(bits)
				buildTable(&tb, ref, l.seedLen, stride)
			}
		})
	}
}

// BenchmarkKernelScanUnmatched measures the version scan over bytes that
// match nothing: every position is fingerprinted and probed, and no probe
// verifies, so the per-position cost is all that is timed.
func BenchmarkKernelScanUnmatched(b *testing.B) {
	l := NewLinear()
	for _, size := range []int{64 << 10, 1 << 20} {
		rng := rand.New(rand.NewSource(2))
		ref := make([]byte, size)
		version := make([]byte, size)
		rng.Read(ref)
		rng.Read(version)
		stride, bits := l.tableParams(size)
		var tb krTable
		tb.prepare(bits)
		buildTable(&tb, ref, l.seedLen, stride)
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			var e emitter
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.reset()
				scanRange(&tb, &e, ref, version, l.seedLen)
			}
		})
	}
}
