package inplace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
)

func swapDelta() *delta.Delta {
	return &delta.Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []delta.Command{
			delta.NewCopy(4, 0, 4),
			delta.NewCopy(0, 4, 4),
		},
	}
}

func TestScratchBudgetPreservesCopies(t *testing.T) {
	ref := []byte("AAAABBBB")
	d := swapDelta()
	out, st, err := Convert(d, ref, WithScratchBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.StashedCopies != 1 || st.ConvertedCopies != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ScratchUsed != 4 || out.ScratchRequired() != 4 {
		t.Fatalf("scratch accounting: %+v, required %d", st, out.ScratchRequired())
	}
	// No literal data in the delta at all.
	if out.AddedBytes() != 0 {
		t.Fatalf("added bytes = %d", out.AddedBytes())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := out.CheckInPlace(); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), ref...)
	if err := out.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "BBBBAAAA" {
		t.Fatalf("in-place scratch apply = %q", buf)
	}
}

func TestScratchBudgetTooSmallFallsBackToAdd(t *testing.T) {
	ref := []byte("AAAABBBB")
	d := swapDelta()
	out, st, err := Convert(d, ref, WithScratchBudget(3)) // victim is 4 bytes
	if err != nil {
		t.Fatal(err)
	}
	if st.StashedCopies != 0 || st.ConvertedCopies != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if out.ScratchRequired() != 0 {
		t.Fatal("fallback delta must not need scratch")
	}
}

func TestZeroBudgetMatchesPaperAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := make([]byte, 16<<10)
	rng.Read(ref)
	version := mutateBytes(rng, ref)
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	plain, stPlain, err := Convert(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	zero, stZero, err := Convert(d, ref, WithScratchBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	if stPlain.ConvertedCopies != stZero.ConvertedCopies || len(plain.Commands) != len(zero.Commands) {
		t.Fatal("zero budget diverged from the default algorithm")
	}
	for k := range plain.Commands {
		if !plain.Commands[k].Equal(zero.Commands[k]) {
			t.Fatalf("command %d differs", k)
		}
	}
	// Negative budgets clamp to zero.
	neg, _, err := Convert(d, ref, WithScratchBudget(-5))
	if err != nil {
		t.Fatal(err)
	}
	if neg.ScratchRequired() != 0 {
		t.Fatal("negative budget used scratch")
	}
}

func TestScratchBudgetOnAdversarialTree(t *testing.T) {
	// With enough scratch, every leaf conversion of the Figure 2 instance
	// becomes a stash: zero compression lost.
	depth, leafLen := 4, 32
	leaves := 1 << depth
	d := AdversarialDelta(depth, leafLen)
	ref := make([]byte, d.RefLen)
	rand.New(rand.NewSource(8)).Read(ref)

	// The paper's algorithm plus scratch: whole leaves are the victims.
	out, st, err := Convert(d, ref, WithStrategy(StrategyDFS), WithScratchBudget(int64(leaves*leafLen)))
	if err != nil {
		t.Fatal(err)
	}
	if st.StashedCopies != leaves || st.ConvertedCopies != 0 || st.ConvertedBytes != 0 {
		t.Fatalf("stats: %+v", st)
	}
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, out.InPlaceBufLen())
	copy(buf, ref)
	if err := out.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:out.VersionLen], want) {
		t.Fatal("scratch conversion reconstructs the wrong version")
	}

	// Half the budget stashes some leaves, converts the rest.
	_, stHalf, err := Convert(d, ref, WithStrategy(StrategyDFS), WithScratchBudget(int64(leaves*leafLen/2)))
	if err != nil {
		t.Fatal(err)
	}
	if stHalf.StashedCopies == 0 || stHalf.ConvertedCopies == 0 {
		t.Fatalf("half budget stats: %+v", stHalf)
	}
	if stHalf.StashedCopies+stHalf.ConvertedCopies != leaves {
		t.Fatalf("victim accounting: %+v", stHalf)
	}
}

func TestQuickScratchConversionCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]byte, rng.Intn(4<<10)+64)
		rng.Read(ref)
		version := mutateBytes(rng, ref)
		d, err := diff.NewLinear(diff.WithSeedLen(8)).Diff(ref, version)
		if err != nil {
			return false
		}
		budget := rng.Int63n(int64(len(ref)) + 1)
		out, st, err := Convert(d, ref, WithScratchBudget(budget))
		if err != nil {
			return false
		}
		if out.Validate() != nil || out.CheckInPlace() != nil {
			return false
		}
		if st.ScratchUsed > budget || out.ScratchRequired() != st.ScratchUsed {
			return false
		}
		buf := make([]byte, out.InPlaceBufLen())
		copy(buf, ref)
		if out.ApplyInPlace(buf) != nil {
			return false
		}
		return bytes.Equal(buf[:out.VersionLen], version)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
