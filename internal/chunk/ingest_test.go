package chunk

import (
	"encoding/binary"
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

// likeCase is one IngestLike input: setup brings a store to the state
// before the call and returns the like recipe, next is the input, and
// predicted is the fewest chunks of next the predictor must take from
// like.
type likeCase struct {
	name      string
	setup     func(s *Store) Recipe
	next      []byte
	predicted int
}

// likeCases covers edits of a version against its own recipe, inputs
// the recipe does not describe, and like chunks that left the store.
func likeCases(ck *Chunker) []likeCase {
	old := randBytes(80, 512<<10)
	holds := func(v []byte) func(*Store) Recipe {
		return func(s *Store) Recipe { return s.IngestAll(ck, v) }
	}
	overwrite := slices.Clone(old)
	copy(overwrite[100<<10:], randBytes(81, 3000))
	copy(overwrite[300<<10:], randBytes(82, 20000))
	// Records that open with one 1500-byte header: many chunks start
	// inside a header copy, so they share their first 8 bytes and differ.
	header, records := randBytes(83, 1500), []byte(nil)
	for k := range 200 {
		records = slices.Concat(records, header, randBytes(int64(1000+k), 500+37*k%2500))
	}
	recordsEdit := slices.Concat(records[:150<<10], randBytes(84, 700), records[150<<10:])
	released := func(s *Store) Recipe {
		r := s.IngestAll(ck, old)
		s.ReleaseRecipe(r)
		return r
	}
	const most = 400 // of old's 453 chunks
	return []likeCase{
		{"identical", holds(old), old, 453}, // every chunk
		{"overwrite", holds(old), overwrite, most},
		{"insert", holds(old), slices.Concat(old[:70000], randBytes(85, 999), old[70000:200000], []byte("x"), old[200000:]), most},
		{"delete", holds(old), slices.Concat(old[:50000], old[53000:400000], old[400001:]), most},
		{"truncate", holds(old), old[:len(old)-12345], most},
		{"past like's last chunk", holds(old), slices.Concat(old, randBytes(86, 20000)), most},
		{"repeated content", holds(records), recordsEdit, 500},
		{"zeros", holds(make([]byte, 300<<10)), make([]byte, 200<<10+77), 40},
		{"empty input", holds(old), nil, 0},
		{"empty like", func(*Store) Recipe { return Recipe{} }, overwrite, 0},
		{"unrelated like", holds(randBytes(87, 256<<10)), overwrite, 0},
		{"like released", released, overwrite, most},
		// Resident chunks no cut of ck gives: empty, not past Min, over Max.
		{"foreign like", func(s *Store) Recipe {
			return Recipe{Chunks: []Ref{s.Ingest(nil), s.Ingest(old[:100]), s.Ingest(old[:5000]), s.Ingest(nil)}}
		}, old, 0},
		{"like evicted", func(s *Store) Recipe {
			s.maxUnpin = 64 << 10 // keeps the last 64 KiB released
			return released(s)
		}, overwrite, 20},
	}
}

// predictedChunks counts the chunks of data the predictor takes from
// like, cutting the rest as IngestLike does.
func predictedChunks(s *Store, ck *Chunker, data []byte, like Recipe) int {
	p, n := s.newPredictor(ck, like), 0
	var b ingestBatch
	for rest := data; len(rest) > 0; {
		rest = b.cut(ck, p, rest)
		for _, known := range b.known[:b.n] {
			if known {
				n++
			}
		}
	}
	return n
}

// TestIngestLikeMatchesIngestAll pins IngestLike to IngestAll on every
// case: the same recipe, the same resident set and the same counters and
// histogram, inline and pipelined. Each case also checks that the
// predictor took at least its share of chunks from like, so a predictor
// that never predicts fails too.
func TestIngestLikeMatchesIngestAll(t *testing.T) {
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	for _, tc := range likeCases(ck) {
		run := func(ingest func(s *Store, like Recipe) Recipe) (Recipe, Stats, obs.Snapshot) {
			reg := obs.NewRegistry()
			s := NewStore(WithObserver(reg))
			r := ingest(s, tc.setup(s))
			return r, s.Stats(), reg.Snapshot()
		}
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			if n := predictedChunks(s, ck, tc.next, tc.setup(s)); n < tc.predicted {
				t.Errorf("predicted %d chunks, want at least %d", n, tc.predicted)
			}
			for _, procs := range []int{1, 4} {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				wantR, wantStats, wantSnap := run(func(s *Store, _ Recipe) Recipe { return s.IngestAll(ck, tc.next) })
				r, stats, snap := run(func(s *Store, like Recipe) Recipe { return s.IngestLike(ck, tc.next, like) })
				if !slices.Equal(r.Chunks, wantR.Chunks) {
					t.Fatalf("GOMAXPROCS=%d: recipe differs from IngestAll's", procs)
				}
				if stats != wantStats {
					t.Fatalf("GOMAXPROCS=%d: stats %+v, want %+v", procs, stats, wantStats)
				}
				if !reflect.DeepEqual(snap, wantSnap) {
					t.Fatalf("GOMAXPROCS=%d: metrics differ from IngestAll's:\n got %+v\nwant %+v", procs, snap, wantSnap)
				}
			}
		})
	}
}

// TestIngestLikeSharedPrefixes checks that the repeated-content case
// exercises what it is for: distinct chunks of like that share their
// first 8 bytes, of which the predictor's table holds one.
func TestIngestLikeSharedPrefixes(t *testing.T) {
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	cases := likeCases(ck)
	tc := cases[slices.IndexFunc(cases, func(tc likeCase) bool { return tc.name == "repeated content" })]
	s := NewStore()
	ids := map[uint64]map[ID]bool{}
	shared := 0
	for _, c := range tc.setup(s).Chunks {
		data, err := s.Chunk(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		key := binary.LittleEndian.Uint64(data)
		if ids[key] == nil {
			ids[key] = map[ID]bool{}
		}
		if ids[key][c.ID] = true; len(ids[key]) == 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two distinct chunks of like share their first 8 bytes")
	}
}

// TestIngestLikeConcurrentRelease releases and evicts every chunk of
// like while IngestLike predicts from it (CI runs the chunk suite under
// -race): a prediction whose chunk left the store takes install's miss
// path, and the recipe is still IngestAll's.
func TestIngestLikeConcurrentRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	prev, next := ingestImages()
	want := ingestSplit(NewStore(), ck, next)
	for range 4 {
		s := NewStore(WithMaxUnpinned(1))
		like := s.IngestAll(ck, prev)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ReleaseRecipe(like)
		}()
		got := s.IngestLike(ck, next, like)
		<-done
		if !slices.Equal(got.Chunks, want.Chunks) {
			t.Fatal("recipe differs from the sequential Split+Ingest loop")
		}
		s.ReleaseRecipe(got)
		if st := s.Stats(); st.PinnedBytes != 0 {
			t.Fatalf("pinned bytes after releasing every recipe: %+v", st)
		}
	}
}

// TestIngestLikeAllocs gates the predicted ingest: on hits its
// allocations per call are the recipe and the predictor's three, inline
// and pipelined, however many chunks the input has.
func TestIngestLikeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const slack = 8 // as in TestIngestAllAllocs
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	var chunks, likeN [2]int64
	for k, size := range []int{256 << 10, 4 << 20} {
		old := randBytes(int64(97+k), size)
		next := slices.Concat(old[:size/3], randBytes(int64(99+k), 5000), old[size/3+100:])
		copy(next[size/2:], randBytes(int64(101+k), 20000))
		s := NewStore()
		like := s.IngestAll(ck, old)
		chunks[k] = int64(len(like.Chunks))
		call := func() { s.ReleaseRecipe(s.IngestLike(ck, next, like)) }
		s.IngestLike(ck, next, like) // pins next's new chunks: every call below hits
		if n := testing.AllocsPerRun(10, call); n > 4 {
			t.Errorf("%d chunks: inline hit path allocates %v per call, want the recipe and the predictor's 3", chunks[k], n)
		}
		likeN[k] = int64(minMallocs(4, call))
	}
	if chunks[1] < 8*chunks[0] {
		t.Fatalf("inputs cut into %d and %d chunks, want a wide spread", chunks[0], chunks[1])
	}
	if likeN[1] > likeN[0]+slack {
		t.Errorf("pipelined hit path allocates %d per call at %d chunks, %d at %d", likeN[1], chunks[1], likeN[0], chunks[0])
	}
}

// TestIngestReleaseChurnAllocs gates the unpinned LRU: ingesting a
// churned version and releasing it moves every chunk only it holds off
// the LRU and back, and that allocates nothing, so a call allocates the
// same however many chunks churn.
func TestIngestReleaseChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	var chunks [2]int
	var allocs [2]float64
	for k, size := range []int{256 << 10, 4 << 20} { // 256 and 4,096 chunks of the average size
		old := randBytes(int64(103+k), size)
		next := slices.Clone(old)
		for at := 0; at+100 <= size; at += 8 << 10 {
			copy(next[at:], randBytes(int64(at), 100))
		}
		s := NewStore()
		like := s.IngestAll(ck, old)
		chunks[k] = len(like.Chunks)
		allocs[k] = testing.AllocsPerRun(10, func() { s.ReleaseRecipe(s.IngestLike(ck, next, like)) })
		if st := s.Stats(); st.UnpinnedBytes < int64(size)/16 {
			t.Fatalf("%d chunks: %d unpinned bytes, want the churned chunks on the LRU", chunks[k], st.UnpinnedBytes)
		}
	}
	if chunks[1] < 8*chunks[0] {
		t.Fatalf("inputs cut into %d and %d chunks, want a wide spread", chunks[0], chunks[1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("ingest+release allocates %v per call at %d chunks, %v at %d", allocs[0], chunks[0], allocs[1], chunks[1])
	}
}
