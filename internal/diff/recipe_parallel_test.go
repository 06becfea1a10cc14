package diff

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ipdelta/internal/chunk"
	"ipdelta/internal/codec"
)

// runChurn returns an image and a version with one 64-byte overwrite
// every 16 KiB: under recipeTestStore's chunker each overwrite leaves an
// unmatched run, and the untouched chunks between overwrites separate
// the runs.
func runChurn(seed int64, runs int) (old, new []byte) {
	rng := rand.New(rand.NewSource(seed))
	old = make([]byte, runs*16<<10)
	rng.Read(old)
	new = append([]byte(nil), old...)
	for k := 0; k < runs; k++ {
		at := k*16<<10 + 8<<10
		rng.Read(new[at : at+64])
	}
	return old, new
}

// recipeRuns ingests old and new and counts the unmatched runs the plan
// hands to the workers.
func recipeRuns(t *testing.T, rd *RecipeDiffer, old, new []byte) (ro, rn chunk.Recipe, cs *chunk.Store, runs int) {
	t.Helper()
	ck, cs := recipeTestStore(t)
	ro, rn = cs.IngestAll(ck, old), cs.IngestAll(ck, new)
	st := rd.getState()
	rd.plan(st, ro, rn)
	runs = len(st.runs)
	rd.putStates(st)
	return ro, rn, cs, runs
}

func encodeOrdered(t *testing.T, rd *RecipeDiffer, ro, rn chunk.Recipe, src chunk.Source) []byte {
	t.Helper()
	d, err := rd.DiffRecipes(ro, rn, src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatOrdered); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiffRecipesDeterministicAcrossWorkers: however many workers diff
// the runs, the stitched delta encodes to the same bytes.
func TestDiffRecipesDeterministicAcrossWorkers(t *testing.T) {
	rd := NewRecipeDiffer()
	old, new := runChurn(11, 96)
	ro, rn, cs, runs := recipeRuns(t, rd, old, new)
	if runs < 64 {
		t.Fatalf("input has %d unmatched runs, want >= 64", runs)
	}
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := encodeOrdered(t, rd, ro, rn, cs)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d, rep %d: encoding differs from GOMAXPROCS=1", procs, rep)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// hidingSource resolves every chunk but the hidden ones.
type hidingSource struct {
	chunk.Source
	hidden map[chunk.ID]bool
}

func (h hidingSource) Chunk(id chunk.ID) ([]byte, error) {
	if h.hidden[id] {
		return nil, fmt.Errorf("%w: %s", chunk.ErrNoSuchChunk, id)
	}
	return h.Source.Chunk(id)
}

// TestDiffRecipesErrorNamesEarliestRun: with a chunk missing from two
// runs, the error names the earlier run's chunk whichever worker failed
// first, every helper goroutine has exited, and the pooled states come
// back without the failed call's plan.
func TestDiffRecipesErrorNamesEarliestRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rd := NewRecipeDiffer()
	old, new := runChurn(12, 64)
	ro, rn, cs, runs := recipeRuns(t, rd, old, new)
	st := rd.getState()
	rd.plan(st, ro, rn)
	early, late := rn.Chunks[st.runs[5].a], rn.Chunks[st.runs[runs-3].a]
	rd.putStates(st)
	src := hidingSource{cs, map[chunk.ID]bool{early.ID: true, late.ID: true}}

	goroutines := runtime.NumGoroutine()
	for rep := 0; rep < 20; rep++ {
		_, err := rd.DiffRecipes(ro, rn, src)
		if !errors.Is(err, chunk.ErrNoSuchChunk) || !strings.Contains(err.Error(), early.ID.String()) {
			t.Fatalf("rep %d: error %v, want the missing chunk %s of the earlier run", rep, err, early.ID)
		}
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed diffs, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}

	// The failed calls returned their states: the helpers of a failed
	// call cost no more allocations than those of a successful one.
	failing := func() { rd.DiffRecipes(ro, rn, src) }
	ok := func() { rd.DiffRecipes(ro, rn, cs) }
	failHelpers := int64(minMallocs(4, failing)) - int64(minMallocs(1, failing))
	okHelpers := int64(minMallocs(4, ok)) - int64(minMallocs(1, ok))
	if !raceEnabled && failHelpers > okHelpers+2 {
		t.Errorf("helpers of a failed diff allocate %d, of a successful one %d: states leak on error", failHelpers, okHelpers)
	}
	got := rd.getState()
	defer rd.putStates(got)
	if len(got.helpers) != 0 {
		t.Fatalf("pooled state still lists %d helper states", len(got.helpers))
	}
	for _, r := range got.runs[:cap(got.runs)] {
		if r.st != nil || r.err != nil {
			t.Fatal("pooled state still references a finished run's worker or error")
		}
	}
}

// minMallocs returns the fewest heap allocations one call of f made over
// several rounds at the given GOMAXPROCS. testing.AllocsPerRun pins
// GOMAXPROCS to 1, which keeps DiffRecipes on one worker; this measures
// the parallel path. Taking the minimum discards allocations the runtime
// made for other goroutines, and pool misses when a worker's state was
// left in another P's private slot.
func minMallocs(procs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 10 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestDiffRecipesAllocs gates the three phases: allocations per call do
// not grow with the number of unmatched runs, on one worker or several.
// The plan's scratch and every worker's state are pooled; the output
// costs the Delta, its command slice and its literal arena.
func TestDiffRecipesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	rd := NewRecipeDiffer()
	var one, many [2]uint64
	var runs [2]int
	for k, n := range []int{16, 256} {
		old, new := runChurn(int64(13+k), n)
		var ro, rn chunk.Recipe
		var cs *chunk.Store
		ro, rn, cs, runs[k] = recipeRuns(t, rd, old, new)
		diff := func() {
			if _, err := rd.DiffRecipes(ro, rn, cs); err != nil {
				t.Fatal(err)
			}
		}
		diff() // warm the pool
		one[k] = uint64(testing.AllocsPerRun(10, diff))
		many[k] = minMallocs(4, diff)
	}
	if runs[0] < 16 || runs[1] < 256 {
		t.Fatalf("inputs have %d and %d unmatched runs, want 16 and 256", runs[0], runs[1])
	}
	t.Logf("one worker: %v allocs at %v runs; four workers: %v", one, runs, many)
	if one[0] > 3 || one[1] > 3 {
		t.Errorf("one worker allocates %v per call at %v runs, want <= 3", one, runs)
	}
	// The runtime allocates a goroutine or a waiter now and then when
	// workers move between Ps; a per-run cost would add hundreds.
	if many[1] > many[0]+8 {
		t.Errorf("four workers allocate %d per call at %d runs, %d at %d", many[1], runs[1], many[0], runs[0])
	}
}
