package chunk

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"ipdelta/internal/obs"
)

// ingestSplit is IngestAll's specification: Split, then one Ingest per
// chunk in input order, into a recipe sized the same way.
func ingestSplit(s *Store, ck *Chunker, data []byte) Recipe {
	r := Recipe{Chunks: make([]Ref, 0, len(data)/ck.p.Avg+1)}
	ck.Split(data, func(c []byte) { r.Chunks = append(r.Chunks, s.Ingest(c)) })
	return r
}

// ingestImages returns a version the store already partly holds and its
// successor: the successor keeps most of the version, adds fresh bytes,
// and repeats a stretch of itself, so one IngestAll sees hits on earlier
// calls, misses, and hits on chunks it stored itself.
func ingestImages() (prev, next []byte) {
	prev = randBytes(90, 512<<10)
	next = append(append([]byte(nil), prev[:384<<10]...), randBytes(91, 256<<10)...)
	next = append(next, prev[64<<10:320<<10]...)
	return prev, next
}

// TestIngestAllMatchesIngest pins the pipelined IngestAll to the
// sequential Split+Ingest loop: same recipe, same resident set, same
// dedup counters and chunk-size histogram, on one core and on several.
func TestIngestAllMatchesIngest(t *testing.T) {
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	prev, next := ingestImages()
	run := func(ingest func(*Store, *Chunker, []byte) Recipe) (Recipe, Stats, obs.Snapshot) {
		reg := obs.NewRegistry()
		s := NewStore(WithObserver(reg))
		ingestSplit(s, ck, prev)
		r := ingest(s, ck, next)
		return r, s.Stats(), reg.Snapshot()
	}
	wantR, wantStats, wantSnap := run(ingestSplit)
	if n := len(wantR.Chunks); n < 4*ingestBatchLen {
		t.Fatalf("input cuts into %d chunks, want several batches", n)
	}
	if wantSnap.Counters["ipdelta_chunk_dedup_hits_total"] == 0 || wantSnap.Counters["ipdelta_chunk_dedup_misses_total"] == 0 {
		t.Fatalf("input exercises only one of hit and miss: %v", wantSnap.Counters)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r, stats, snap := run((*Store).IngestAll)
			if !slices.Equal(r.Chunks, wantR.Chunks) {
				t.Fatal("recipe differs from the sequential Split+Ingest loop")
			}
			if stats != wantStats {
				t.Fatalf("stats %+v, want %+v", stats, wantStats)
			}
			if !reflect.DeepEqual(snap, wantSnap) {
				t.Fatalf("metrics differ from the sequential loop:\n got %+v\nwant %+v", snap, wantSnap)
			}
		})
	}
}

// TestIngestAllConcurrentOverlap runs two IngestAlls of overlapping
// content on one store at once (CI runs the chunk suite under -race):
// each gets the sequential recipe, every shared chunk is stored once,
// and releasing both recipes unpins everything.
func TestIngestAllConcurrentOverlap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	prev, next := ingestImages()
	inputs := [][]byte{prev, next}
	want := make([]Recipe, len(inputs))
	ref := NewStore()
	for k, in := range inputs {
		want[k] = ingestSplit(ref, ck, in)
	}

	s := NewStore()
	got := make([]Recipe, len(inputs))
	var wg sync.WaitGroup
	for k, in := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = s.IngestAll(ck, in)
		}()
	}
	wg.Wait()
	for k := range inputs {
		if !slices.Equal(got[k].Chunks, want[k].Chunks) {
			t.Fatalf("input %d: recipe differs from the sequential loop", k)
		}
	}
	if st, wantSt := s.Stats(), ref.Stats(); st != wantSt {
		t.Fatalf("stats %+v, want %+v", st, wantSt)
	}
	for _, r := range got {
		s.ReleaseRecipe(r)
	}
	if st := s.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes after releasing both recipes: %+v", st)
	}
}

// minMallocs returns the fewest heap allocations one call of f made over
// several rounds at the given GOMAXPROCS. testing.AllocsPerRun pins
// GOMAXPROCS to 1, which keeps IngestAll inline; this measures the
// pipelined path. Taking the minimum discards allocations the runtime
// made for other goroutines.
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

// TestIngestAllAllocs gates the ingest pipeline: its allocations per call
// do not grow with the number of chunks, inline or pipelined. On hits the
// inline path allocates the recipe only. On misses IngestAll may allocate
// what the same chunks' Ingest calls do (the store-owned copies and their
// bookkeeping) plus the pipeline's constant.
func TestIngestAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	// A fresh store's map grows in steps that depend on its hash seed, and
	// the runtime allocates a goroutine or a channel waiter now and then
	// when the pipeline's goroutines move between Ps, so equal ingests can
	// differ by a few allocations. A per-batch cost would add dozens.
	const slack = 8
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	var chunks, hitN [2]int64
	for k, size := range []int{256 << 10, 4 << 20} { // 4 and 56 batches
		data := randBytes(int64(95+k), size)
		s := NewStore()
		chunks[k] = int64(len(s.IngestAll(ck, data).Chunks))
		hit := func() { s.ReleaseRecipe(s.IngestAll(ck, data)) }
		if n := testing.AllocsPerRun(10, hit); n > 1 {
			t.Errorf("%d chunks: inline hit path allocates %v per call, want the recipe only", chunks[k], n)
		}
		hitN[k] = int64(minMallocs(4, hit))
		for _, procs := range []int{1, 4} {
			all := int64(minMallocs(procs, func() { NewStore().IngestAll(ck, data) }))
			seq := int64(minMallocs(procs, func() { ingestSplit(NewStore(), ck, data) }))
			if all > seq+hitN[k]+slack {
				t.Errorf("%d chunks, GOMAXPROCS=%d: miss path allocates %d per call, Split+Ingest %d", chunks[k], procs, all, seq)
			}
		}
	}
	if chunks[1] < 8*chunks[0] {
		t.Fatalf("inputs cut into %d and %d chunks, want a wide spread", chunks[0], chunks[1])
	}
	if hitN[1] > hitN[0]+slack {
		t.Errorf("pipelined hit path allocates %d per call at %d chunks, %d at %d", hitN[1], chunks[1], hitN[0], chunks[0])
	}
}
