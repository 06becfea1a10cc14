package inplace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
)

// convertAndCheck converts d and verifies the full contract: the output is
// a valid delta, satisfies Equation 2, and materializes the same version
// both with scratch space and in place.
func convertAndCheck(t *testing.T, d *delta.Delta, ref []byte, opts ...Option) (*delta.Delta, *Stats) {
	t.Helper()
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatalf("input apply: %v", err)
	}
	out, stats, err := Convert(d, ref, opts...)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("converted delta invalid: %v", err)
	}
	if err := out.CheckInPlace(); err != nil {
		t.Fatalf("converted delta violates Equation 2: %v", err)
	}
	got, err := out.Apply(ref)
	if err != nil {
		t.Fatalf("converted apply: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("converted delta materializes a different version")
	}
	buf := make([]byte, out.InPlaceBufLen())
	copy(buf, ref)
	if err := out.ApplyInPlace(buf); err != nil {
		t.Fatalf("in-place apply: %v", err)
	}
	if !bytes.Equal(buf[:out.VersionLen], want) {
		t.Fatal("in-place application materializes a different version")
	}
	return out, stats
}

func TestConvertSwap(t *testing.T) {
	// Swapping two halves has a 2-cycle; one copy must become an add.
	ref := []byte("AAAABBBB")
	d := &delta.Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []delta.Command{
			delta.NewCopy(4, 0, 4),
			delta.NewCopy(0, 4, 4),
		},
	}
	for _, p := range []graph.Policy{graph.ConstantTime{}, graph.LocallyMinimum{}} {
		out, stats := convertAndCheck(t, d, ref, WithPolicy(p))
		if stats.CyclesBroken != 1 || stats.ConvertedCopies != 1 {
			t.Fatalf("%s: stats = %+v", p.Name(), stats)
		}
		if stats.ConvertedBytes != 4 {
			t.Fatalf("%s: converted %d bytes", p.Name(), stats.ConvertedBytes)
		}
		if out.NumCopies() != 1 || out.NumAdds() != 1 {
			t.Fatalf("%s: output %v", p.Name(), out.Commands)
		}
	}
}

func TestConvertConflictFreePermutation(t *testing.T) {
	// A shifted file: copy(4,0,4) then copy(0,4,4) conflicts as written in
	// write order, but reversing avoids any conversion... here the right
	// rotation by 4 of an 8-byte file: version = ref[4:8] + ref[0:4].
	// The digraph has a cycle only if both orders conflict; rotating reads
	// means copy A reads what B writes and vice versa — a genuine cycle.
	// Contrast with a pure shift, which needs only reordering:
	ref := []byte("abcdefgh")
	shift := &delta.Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []delta.Command{
			delta.NewAdd(6, []byte("XY")), // tail gets new data
			delta.NewCopy(2, 0, 6),        // shift left by two
		},
	}
	out, stats := convertAndCheck(t, shift, ref)
	if stats.ConvertedCopies != 0 || stats.CyclesBroken != 0 {
		t.Fatalf("pure shift needed conversions: %+v", stats)
	}
	// Adds must come last in the output.
	if out.Commands[len(out.Commands)-1].Op != delta.OpAdd {
		t.Fatal("adds not at the end")
	}
}

func TestConvertPlacesAddsLast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := make([]byte, 4096)
	rng.Read(ref)
	version := append(append([]byte(nil), ref[2048:]...), ref[:2048]...)
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := convertAndCheck(t, d, ref)
	seenAdd := false
	for _, c := range out.Commands {
		if c.Op == delta.OpAdd {
			seenAdd = true
		} else if seenAdd {
			t.Fatal("copy command after an add")
		}
	}
}

func TestConvertRejectsInvalidInput(t *testing.T) {
	bad := &delta.Delta{RefLen: 4, VersionLen: 4,
		Commands: []delta.Command{delta.NewCopy(0, 2, 4)}}
	if _, _, err := Convert(bad, make([]byte, 4)); err == nil {
		t.Fatal("accepted invalid delta")
	}
	good := &delta.Delta{RefLen: 4, VersionLen: 4,
		Commands: []delta.Command{delta.NewCopy(0, 0, 4)}}
	if _, _, err := Convert(good, make([]byte, 3)); err == nil {
		t.Fatal("accepted wrong reference length")
	}
}

func TestConvertedAddCarriesReferenceData(t *testing.T) {
	ref := []byte("AAAABBBB")
	d := &delta.Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []delta.Command{
			delta.NewCopy(4, 0, 4),
			delta.NewCopy(0, 4, 4),
		},
	}
	out, _, err := Convert(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	var add *delta.Command
	for k := range out.Commands {
		if out.Commands[k].Op == delta.OpAdd {
			add = &out.Commands[k]
		}
	}
	if add == nil {
		t.Fatal("no converted add")
	}
	// Whichever copy was converted, its data must equal the reference
	// bytes it would have copied.
	want := "BBBB"
	if add.To == 4 {
		want = "AAAA"
	}
	if string(add.Data) != want {
		t.Fatalf("converted add data %q at offset %d", add.Data, add.To)
	}
}

func TestQuadraticDelta(t *testing.T) {
	for _, b := range []int{2, 8, 32} {
		d := QuadraticDelta(b)
		if err := d.Validate(); err != nil {
			t.Fatalf("b=%d: invalid: %v", b, err)
		}
		if got := len(d.Commands); got != 2*b-1 {
			t.Fatalf("b=%d: %d commands, want %d", b, got, 2*b-1)
		}
		ref := make([]byte, d.RefLen)
		for k := range ref {
			ref[k] = byte(k)
		}
		out, stats := convertAndCheck(t, d, ref)
		if stats.Edges != (b-1)*b {
			t.Fatalf("b=%d: %d edges, want %d", b, stats.Edges, (b-1)*b)
		}
		if int64(stats.Edges) > d.VersionLen {
			t.Fatalf("b=%d: edges %d exceed Lemma 1 bound %d", b, stats.Edges, d.VersionLen)
		}
		if stats.ConvertedCopies != 0 {
			t.Fatalf("b=%d: acyclic digraph required %d conversions", b, stats.ConvertedCopies)
		}
		if out.NumCopies() != 2*b-1 {
			t.Fatalf("b=%d: copies lost", b)
		}
	}
	if QuadraticDelta(0).VersionLen != 4 {
		t.Fatal("b clamp failed")
	}
}

func TestAdversarialDeltaShape(t *testing.T) {
	depth, leafLen := 3, 16
	d := AdversarialDelta(depth, leafLen)
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	n := (1 << (depth + 1)) - 1
	if d.NumCopies() != n {
		t.Fatalf("%d copies, want %d", d.NumCopies(), n)
	}
	// Clamping.
	d2 := AdversarialDelta(0, 1)
	if d2.NumCopies() != 3 {
		t.Fatalf("clamped tree has %d copies", d2.NumCopies())
	}
}

func TestAdversarialDeltaPolicyGap(t *testing.T) {
	depth, leafLen := 4, 32
	leaves := 1 << depth
	d := AdversarialDelta(depth, leafLen)
	ref := make([]byte, d.RefLen)
	rng := rand.New(rand.NewSource(2))
	rng.Read(ref)

	// The paper's algorithm: whole-copy cycle breaking.
	_, lmStats := convertAndCheck(t, d, ref, WithStrategy(StrategyDFS), WithPolicy(graph.LocallyMinimum{}))
	if lmStats.ConvertedCopies != leaves {
		t.Fatalf("locally-minimum converted %d copies, want %d leaves", lmStats.ConvertedCopies, leaves)
	}
	if lmStats.ConvertedBytes != int64(leaves*leafLen) {
		t.Fatalf("locally-minimum converted %d bytes", lmStats.ConvertedBytes)
	}
	// The globally optimal single-vertex solution (the root) costs only
	// 2·leafLen bytes; locally-minimum is leaves/2 times worse here, and
	// the ratio grows with depth — the paper's Figure 2 claim.
	if lmStats.ConvertedBytes <= int64(2*leafLen) {
		t.Fatal("adversarial instance failed to penalize locally-minimum")
	}
}

func TestConvertIdempotent(t *testing.T) {
	// Converting an already in-place delta must not convert any copies.
	rng := rand.New(rand.NewSource(3))
	ref := make([]byte, 16<<10)
	rng.Read(ref)
	version := append([]byte(nil), ref...)
	copy(version[4096:8192], ref[0:4096]) // duplicate a block
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	once, stats1 := convertAndCheck(t, d, ref)
	twice, stats2 := convertAndCheck(t, once, ref)
	if stats2.ConvertedCopies != 0 || stats2.CyclesBroken != 0 {
		t.Fatalf("second conversion did work: %+v", stats2)
	}
	if len(twice.Commands) != len(once.Commands) {
		t.Fatalf("command count changed: %d -> %d", len(once.Commands), len(twice.Commands))
	}
	_ = stats1
}

func TestEncodingLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := make([]byte, 32<<10)
	rng.Read(ref)
	version := append([]byte(nil), ref...)
	for k := 0; k < 20; k++ {
		version[rng.Intn(len(version))] ^= 0xFF
	}
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	ordered, offsets, err := EncodingLoss(d)
	if err != nil {
		t.Fatal(err)
	}
	if ordered >= offsets {
		t.Fatalf("ordered %d >= offsets %d", ordered, offsets)
	}
}

func TestStatsEdgeBoundLemma1(t *testing.T) {
	// Property: on real diffs, CRWI edges never exceed the version length.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]byte, rng.Intn(8<<10)+64)
		rng.Read(ref)
		version := mutateBytes(rng, ref)
		d, err := diff.NewLinear(diff.WithSeedLen(8)).Diff(ref, version)
		if err != nil {
			return false
		}
		_, stats, err := Convert(d, ref)
		if err != nil {
			return false
		}
		return int64(stats.Edges) <= d.VersionLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// mutateBytes produces a version with block moves and edits — block moves
// are what generate WR conflicts and cycles.
func mutateBytes(rng *rand.Rand, base []byte) []byte {
	out := append([]byte(nil), base...)
	for k := 0; k < rng.Intn(6)+1; k++ {
		if len(out) < 8 {
			break
		}
		a := rng.Intn(len(out) - 4)
		b := rng.Intn(len(out) - 4)
		n := rng.Intn(len(out)/4 + 1)
		if a+n > len(out) {
			n = len(out) - a
		}
		if b+n > len(out) {
			n = len(out) - b
		}
		// Swap two (possibly overlapping) regions via a temp copy.
		tmp := append([]byte(nil), out[a:a+n]...)
		copy(out[a:a+n], out[b:b+n])
		copy(out[b:b+n], tmp)
	}
	for k := 0; k < rng.Intn(20); k++ {
		out[rng.Intn(len(out))] = byte(rng.Intn(256))
	}
	return out
}

func TestQuickConvertAlwaysInPlaceSafe(t *testing.T) {
	algs := []diff.Algorithm{diff.NewLinear(diff.WithSeedLen(8)), diff.NewGreedy()}
	policies := []graph.Policy{graph.ConstantTime{}, graph.LocallyMinimum{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]byte, rng.Intn(4<<10)+32)
		// Half the seeds use repetitive content to provoke many matches.
		if seed%2 == 0 {
			chunk := make([]byte, 96)
			rng.Read(chunk)
			for at := 0; at < len(ref); at += 96 {
				copy(ref[at:], chunk)
			}
		} else {
			rng.Read(ref)
		}
		version := mutateBytes(rng, ref)
		a := algs[int(uint64(seed)%2)]
		p := policies[int(uint64(seed)/2%2)]
		d, err := a.Diff(ref, version)
		if err != nil {
			return false
		}
		out, _, err := Convert(d, ref, WithPolicy(p))
		if err != nil {
			return false
		}
		if out.Validate() != nil || out.CheckInPlace() != nil {
			return false
		}
		buf := make([]byte, out.InPlaceBufLen())
		copy(buf, ref)
		if out.ApplyInPlace(buf) != nil {
			return false
		}
		return bytes.Equal(buf[:out.VersionLen], version)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestConvertEmptyAndTrivial(t *testing.T) {
	empty := &delta.Delta{RefLen: 0, VersionLen: 0}
	out, stats := convertAndCheck(t, empty, nil)
	if len(out.Commands) != 0 || stats.Copies != 0 {
		t.Fatal("empty delta mishandled")
	}

	oneAdd := &delta.Delta{RefLen: 0, VersionLen: 3,
		Commands: []delta.Command{delta.NewAdd(0, []byte("abc"))}}
	out, _ = convertAndCheck(t, oneAdd, nil)
	if len(out.Commands) != 1 {
		t.Fatal("single add mishandled")
	}

	oneCopy := &delta.Delta{RefLen: 3, VersionLen: 3,
		Commands: []delta.Command{delta.NewCopy(0, 0, 3)}}
	out, _ = convertAndCheck(t, oneCopy, []byte("xyz"))
	if out.NumCopies() != 1 {
		t.Fatal("identity copy mishandled")
	}
}

func TestConvertDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ref := make([]byte, 32<<10)
	rng.Read(ref)
	version := mutateBytes(rng, ref)
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := Convert(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		again, _, err := Convert(d, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Commands) != len(first.Commands) {
			t.Fatal("nondeterministic command count")
		}
		for i := range first.Commands {
			if !first.Commands[i].Equal(again.Commands[i]) {
				t.Fatalf("nondeterministic command %d", i)
			}
		}
	}
}
