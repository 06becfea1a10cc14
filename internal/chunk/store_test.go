package chunk

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ipdelta/internal/obs"
)

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestStoreDedupAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(WithObserver(reg))
	a := randBytes(1, 4096)
	b := randBytes(2, 4096)

	ra := s.Ingest(a)
	if s.Ingest(a) != ra {
		t.Fatal("same content produced different refs")
	}
	s.Ingest(b)

	snap := reg.Snapshot()
	if got := snap.Counters["ipdelta_chunk_dedup_hits_total"]; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
	if got := snap.Counters["ipdelta_chunk_dedup_misses_total"]; got != 2 {
		t.Fatalf("dedup misses = %d, want 2", got)
	}
	if got := snap.Counters["ipdelta_chunk_dedup_bytes_saved_total"]; got != 4096 {
		t.Fatalf("bytes saved = %d, want 4096", got)
	}
	got, err := s.Chunk(ra.ID)
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("Chunk returned wrong content (%v)", err)
	}
	if _, err := s.Chunk(IDOf([]byte("absent"))); err == nil {
		t.Fatal("absent chunk resolved")
	}
}

func TestStoreIngestCopiesData(t *testing.T) {
	s := NewStore()
	buf := randBytes(3, 1024)
	want := append([]byte(nil), buf...)
	ref := s.Ingest(buf)
	for i := range buf {
		buf[i] = 0 // caller reuses its buffer
	}
	got, err := s.Chunk(ref.ID)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("store aliased the caller's buffer")
	}
}

func TestStoreRefcountAndLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	// Budget for exactly two unpinned 1 KiB chunks.
	s := NewStore(WithMaxUnpinned(2048), WithObserver(reg))
	chunks := make([]Ref, 4)
	for k := range chunks {
		chunks[k] = s.Ingest(randBytes(int64(10+k), 1024))
	}
	// Pinned chunks never evict, regardless of budget.
	if st := s.Stats(); st.Chunks != 4 || st.PinnedBytes != 4096 || st.UnpinnedBytes != 0 {
		t.Fatalf("unexpected pinned stats: %+v", st)
	}
	// Release three: the budget holds two, so the least recently
	// released one must go.
	s.Release(chunks[0].ID)
	s.Release(chunks[1].ID)
	s.Release(chunks[2].ID)
	if s.Contains(chunks[0].ID) {
		t.Fatal("LRU kept the oldest unpinned chunk past the budget")
	}
	if !s.Contains(chunks[1].ID) || !s.Contains(chunks[2].ID) {
		t.Fatal("recently released chunks evicted early")
	}
	if got := reg.Snapshot().Counters["ipdelta_chunk_evictions_total"]; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Re-ingesting a still-resident unpinned chunk is a dedup hit that
	// re-pins it.
	before := reg.Snapshot().Counters["ipdelta_chunk_dedup_hits_total"]
	s.Ingest(randBytes(11, 1024)) // same content as chunks[1]
	if got := reg.Snapshot().Counters["ipdelta_chunk_dedup_hits_total"]; got != before+1 {
		t.Fatal("re-ingest of resident unpinned chunk did not dedup")
	}
	if st := s.Stats(); st.PinnedBytes != 2048 {
		t.Fatalf("re-pin did not move the chunk out of the unpinned set: %+v", st)
	}
}

func TestStoreDoubleReleaseHarmless(t *testing.T) {
	s := NewStore()
	ref := s.Ingest(randBytes(5, 512))
	s.Release(ref.ID)
	s.Release(ref.ID) // refs already 0: must not underflow or panic
	s.Release(IDOf([]byte("never stored")))
	if !s.Contains(ref.ID) {
		t.Fatal("released chunk inside budget should remain resident")
	}
}

// TestStoreConcurrentIngest hammers the singleflight path: many
// goroutines ingest the same small set of chunks; afterwards each chunk
// is stored once with the right refcount-visible behaviour.
func TestStoreConcurrentIngest(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(WithObserver(reg))
	contents := make([][]byte, 8)
	for k := range contents {
		contents[k] = randBytes(int64(100+k), 2048)
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 200; i++ {
				c := contents[rng.Intn(len(contents))]
				ref := s.Ingest(c)
				got, err := s.Chunk(ref.ID)
				if err != nil || !bytes.Equal(got, c) {
					t.Errorf("concurrent ingest returned wrong content (%v)", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if st := s.Stats(); st.Chunks != len(contents) {
		t.Fatalf("resident chunks = %d, want %d", st.Chunks, len(contents))
	}
	if got := snap.Counters["ipdelta_chunk_dedup_misses_total"]; got != int64(len(contents)) {
		t.Fatalf("misses = %d, want %d (each chunk stored exactly once)", got, len(contents))
	}
	wantHits := int64(workers*200 - len(contents))
	if got := snap.Counters["ipdelta_chunk_dedup_hits_total"] + snap.Counters["ipdelta_chunk_ingest_flights_total"]; got < wantHits {
		t.Fatalf("hits+flights = %d, want >= %d", got, wantHits)
	}
}

func TestIngestAllAndMaterialize(t *testing.T) {
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	s := NewStore()
	data := randBytes(77, 100<<10)
	r := s.IngestAll(ck, data)
	if got := r.Total(); got != int64(len(data)) {
		t.Fatalf("recipe total %d, want %d", got, len(data))
	}
	out, err := Materialize(nil, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("materialized bytes differ from the ingested image")
	}
	// Cross-version dedup: a second image sharing a long prefix reuses
	// those chunks.
	data2 := append(append([]byte(nil), data[:64<<10]...), randBytes(78, 36<<10)...)
	reg := obs.NewRegistry()
	s2 := NewStore(WithObserver(reg))
	s2.IngestAll(ck, data)
	s2.IngestAll(ck, data2)
	if hits := reg.Snapshot().Counters["ipdelta_chunk_dedup_hits_total"]; hits == 0 {
		t.Fatal("no cross-version chunk sharing on a 64 KiB shared prefix")
	}
}

func TestMaterializeRejectsCorruptChunk(t *testing.T) {
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	s := NewStore()
	data := randBytes(79, 16<<10)
	r := s.IngestAll(ck, data)
	// Lie about one chunk's identity: CRC mismatch must be caught.
	bad := r
	bad.Chunks = append([]Ref(nil), r.Chunks...)
	bad.Chunks[1].CRC ^= 0xDEADBEEF
	if _, err := Materialize(nil, bad, s); err == nil {
		t.Fatal("corrupt per-chunk CRC accepted")
	}
	// A missing chunk must error, not panic.
	bad2 := r
	bad2.Chunks = append([]Ref(nil), r.Chunks...)
	bad2.Chunks[0].ID = IDOf([]byte("gone"))
	if _, err := Materialize(nil, bad2, s); err == nil {
		t.Fatal("missing chunk accepted")
	}
	// Corrupt content of the right length must fail the CRC check.
	_, err := Materialize(nil, r, corruptingSource{Store: s, bad: r.Chunks[2].ID})
	if err == nil || !strings.Contains(err.Error(), "contradicts its recipe identity") {
		t.Fatalf("chunk with one flipped byte: err = %v, want the identity error", err)
	}
}

func BenchmarkStoreIngestDedup(b *testing.B) {
	ck, _ := NewChunker(Params{})
	s := NewStore()
	data := randBytes(80, 4<<20)
	s.IngestAll(ck, data) // warm: every later ingest is a pure dedup hit
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.IngestAll(ck, data)
		s.ReleaseRecipe(r)
	}
}

// corruptingSource serves chunks from a store but flips one byte of the
// chunk with the given ID, keeping its length.
type corruptingSource struct {
	*Store
	bad ID
}

func (c corruptingSource) Chunk(id ID) ([]byte, error) {
	data, err := c.Store.Chunk(id)
	if err != nil || id != c.bad {
		return data, err
	}
	data = append([]byte(nil), data...)
	data[len(data)/2] ^= 0x40
	return data, nil
}

// TestMaterializeRejectsHugeLength feeds a recipe that claims a resident
// chunk is 1 TiB long. It must fail on the length check, before growing
// the output, instead of panicking or allocating what the recipe claims.
func TestMaterializeRejectsHugeLength(t *testing.T) {
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	s := NewStore()
	r := s.IngestAll(ck, randBytes(81, 16<<10))
	bad := Recipe{Chunks: append([]Ref(nil), r.Chunks...)}
	bad.Chunks[len(bad.Chunks)-1].Length = 1 << 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Materialize(nil, bad, s)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "contradicts its recipe identity") {
		t.Fatalf("1 TiB claimed length: err = %v, want the identity error", err)
	}
	if out != nil {
		t.Fatalf("failed materialize returned %d bytes", len(out))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("failed materialize allocated %d bytes", grew)
	}
}

// TestMaterializeAllocs gates the materialize path: with a nil dst it
// allocates the resolved-chunk index and the output, and nothing per
// chunk.
func TestMaterializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	s := NewStore()
	data := randBytes(82, 256<<10)
	r := s.IngestAll(ck, data)
	var out []byte
	n := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = Materialize(nil, r, s); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Fatalf("Materialize of %d chunks allocates %v per run, want <= 2", len(r.Chunks), n)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("materialized bytes differ from the ingested image")
	}
}
