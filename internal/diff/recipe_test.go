package diff

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/obs"
)

func recipeTestStore(t testing.TB) (*chunk.Chunker, *chunk.Store) {
	t.Helper()
	ck, err := chunk.NewChunker(chunk.Params{Min: 512, Avg: 2048, Max: 8192})
	if err != nil {
		t.Fatal(err)
	}
	return ck, chunk.NewStore()
}

// applyRecipeDiff runs DiffRecipes over pre-ingested images and applies
// the result, asserting validity along the way.
func applyRecipeDiff(t *testing.T, rd *RecipeDiffer, old, new []byte) []byte {
	t.Helper()
	ck, cs := recipeTestStore(t)
	ro := cs.IngestAll(ck, old)
	rn := cs.IngestAll(ck, new)
	d, err := rd.DiffRecipes(ro, rn, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("recipe delta invalid: %v", err)
	}
	if d.RefLen != int64(len(old)) || d.VersionLen != int64(len(new)) {
		t.Fatalf("delta lengths %d/%d, want %d/%d", d.RefLen, d.VersionLen, len(old), len(new))
	}
	got, err := d.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRecipeDiffReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	old := make([]byte, 1<<20)
	rng.Read(old)
	// Blocky churn: overwrite a few regions, insert one, delete one.
	new := append([]byte(nil), old...)
	rng.Read(new[100<<10 : 110<<10])
	rng.Read(new[700<<10 : 701<<10])
	ins := make([]byte, 30<<10)
	rng.Read(ins)
	new = append(append(append([]byte(nil), new[:400<<10]...), ins...), new[450<<10:]...)

	rd := NewRecipeDiffer()
	got := applyRecipeDiff(t, rd, old, new)
	if !bytes.Equal(got, new) {
		t.Fatal("recipe delta does not reconstruct the version")
	}
}

func TestRecipeDiffEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 300<<10)
	rng.Read(base)
	fresh := make([]byte, 200<<10)
	rng.Read(fresh)
	rd := NewRecipeDiffer()
	cases := []struct {
		name     string
		old, new []byte
	}{
		{"identical", base, base},
		{"empty to content", nil, base},
		{"content to empty", base, nil},
		{"disjoint", base, fresh},
		{"pure append", base, append(append([]byte(nil), base...), fresh[:40<<10]...)},
		{"pure prepend", base, append(append([]byte(nil), fresh[:40<<10]...), base...)},
		{"reorder halves", base, append(append([]byte(nil), base[150<<10:]...), base[:150<<10]...)},
		{"tiny inputs", []byte("ab"), []byte("abc")},
	}
	for _, tc := range cases {
		got := applyRecipeDiff(t, rd, tc.old, tc.new)
		if !bytes.Equal(got, tc.new) {
			t.Fatalf("%s: reconstruction mismatch", tc.name)
		}
	}
}

// TestRecipeDiffEquivalentToFullDiff is the acceptance property: across
// randomized edit scripts, applying the recipe-path delta yields bytes
// identical to applying the full-image linear diff — i.e. identical to
// the version, since both reconstruct exactly.
func TestRecipeDiffEquivalentToFullDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rd := NewRecipeDiffer()
	lin := NewLinear()
	for trial := 0; trial < 25; trial++ {
		old := make([]byte, 64<<10+rng.Intn(512<<10))
		rng.Read(old)
		new := append([]byte(nil), old...)
		for edits := rng.Intn(6); edits >= 0; edits-- {
			if len(new) == 0 {
				break
			}
			pos := rng.Intn(len(new))
			n := 1 + rng.Intn(20<<10)
			switch rng.Intn(3) {
			case 0: // overwrite
				hi := pos + n
				if hi > len(new) {
					hi = len(new)
				}
				rng.Read(new[pos:hi])
			case 1: // insert
				ins := make([]byte, n)
				rng.Read(ins)
				new = append(append(append([]byte(nil), new[:pos]...), ins...), new[pos:]...)
			default: // delete
				hi := pos + n
				if hi > len(new) {
					hi = len(new)
				}
				new = append(append([]byte(nil), new[:pos]...), new[hi:]...)
			}
		}
		viaRecipe := applyRecipeDiff(t, rd, old, new)
		dFull, err := lin.Diff(old, new)
		if err != nil {
			t.Fatal(err)
		}
		viaFull, err := dFull.Apply(old)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaRecipe, viaFull) {
			t.Fatalf("trial %d: recipe-path and full-diff reconstructions diverge", trial)
		}
		if !bytes.Equal(viaRecipe, new) {
			t.Fatalf("trial %d: reconstruction is not the version", trial)
		}
	}
}

// TestRecipeDiffBoundedWindow pins the memory bound: with a tiny window
// cap the differ still reconstructs exactly (it just compresses less),
// and its state buffers never exceed the cap plus one chunk.
func TestRecipeDiffBoundedWindow(t *testing.T) {
	// The pooled state is inspected below; garbage collections between
	// the diff's Put and that Get would empty the sync.Pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(4))
	old := make([]byte, 2<<20)
	rng.Read(old)
	new := append([]byte(nil), old...)
	// A huge contiguous rewrite, far larger than the window cap.
	rng.Read(new[256<<10 : 1792<<10])

	const winCap = 64 << 10
	rd := NewRecipeDiffer()
	rd.windowCap = winCap
	got := applyRecipeDiff(t, rd, old, new)
	if !bytes.Equal(got, new) {
		t.Fatal("bounded-window reconstruction mismatch")
	}
	st, _ := rd.pool.Get().(*recipeState)
	// sync.Pool does not promise that Get returns what Put stored: a Put
	// can stay in the private slot of a P this goroutine has since left,
	// and under the race detector a quarter of Puts are dropped on
	// purpose. Diff again until a state comes back.
	for tries := 0; st == nil && tries < 20; tries++ {
		applyRecipeDiff(t, rd, old, new)
		st, _ = rd.pool.Get().(*recipeState)
	}
	if st == nil {
		t.Fatal("no pooled state after a diff")
	}
	// Segments flush at >= winCap, so one trailing chunk may overshoot;
	// append growth can at most double that.
	if max := 2 * (winCap + 8192); cap(st.oldWin) > max || cap(st.newSeg) > max {
		t.Fatalf("window buffers exceeded the cap: old %d, new %d", cap(st.oldWin), cap(st.newSeg))
	}
}

// TestRecipeDiffCompressesChurn checks the point of the fast path: on a
// lightly churned input, nearly everything is covered by copies.
func TestRecipeDiffCompressesChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	old := make([]byte, 4<<20)
	rng.Read(old)
	new := append([]byte(nil), old...)
	rng.Read(new[1<<20 : 1<<20+64<<10]) // ~1.5% churn

	reg := obs.NewRegistry()
	rd := NewRecipeDiffer(WithRecipeObserver(reg))
	ck, cs := recipeTestStore(t)
	ro := cs.IngestAll(ck, old)
	rn := cs.IngestAll(ck, new)
	d, err := rd.DiffRecipes(ro, rn, cs)
	if err != nil {
		t.Fatal(err)
	}
	if d.AddedBytes() > 128<<10 {
		t.Fatalf("added bytes %d on a 64 KiB churn — chunk matching is not engaging", d.AddedBytes())
	}
	snap := reg.Snapshot()
	if snap.Counters["ipdelta_recipe_diff_chunk_copy_bytes_total"] == 0 {
		t.Fatal("no whole-chunk copy bytes recorded")
	}
	if snap.Counters["ipdelta_recipe_diff_run_bytes_total"] > 256<<10 {
		t.Fatal("run differ saw far more bytes than the churn")
	}
}
