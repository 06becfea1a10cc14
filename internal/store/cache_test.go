package store

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipdelta/internal/obs"
)

// buildCachedStore mirrors buildChainStore but applies store options.
func buildCachedStore(t testing.TB, n int, seed int64, opts ...Option) (*Store, [][]byte) {
	t.Helper()
	plain, versions := buildChainStore(t, n, seed)
	s := New(versions[0], opts...)
	for k := 1; k < n; k++ {
		if _, err := s.AppendVersion(versions[k]); err != nil {
			t.Fatal(err)
		}
	}
	_ = plain
	return s, versions
}

func TestCacheVersionCorrectness(t *testing.T) {
	s, versions := buildCachedStore(t, 8, 11, WithCache(4))
	// Two passes: the first populates and evicts, the second re-reads a mix
	// of cached and evicted versions. Every read must match the original.
	for pass := 0; pass < 2; pass++ {
		for k := len(versions) - 1; k >= 0; k-- {
			got, err := s.Version(k)
			if err != nil {
				t.Fatalf("pass %d Version(%d): %v", pass, k, err)
			}
			if !bytes.Equal(got, versions[k]) {
				t.Fatalf("pass %d Version(%d) differs", pass, k)
			}
		}
	}
}

func TestCacheHitAndAncestorReplay(t *testing.T) {
	reg := obs.NewRegistry()
	s, versions := buildCachedStore(t, 8, 12, WithCache(16), WithObserver(reg))
	// Cold read of the head replays the whole chain once.
	if _, err := s.Version(7); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	coldReplays := snap.Counter("ipdelta_store_chain_replays_total")
	if coldReplays != 7 {
		t.Fatalf("cold replays = %d, want 7", coldReplays)
	}
	// A repeat is a pure hit: no further replays, hit counter moves.
	if _, err := s.Version(7); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Counter("ipdelta_store_chain_replays_total"); got != coldReplays {
		t.Fatalf("hit caused replays: %d -> %d", coldReplays, got)
	}
	if hits := snap.Counter("ipdelta_store_cache_version_hits_total"); hits != 1 {
		t.Fatalf("version hits = %d, want 1", hits)
	}
	// AppendVersion materializes the head via the cache, so reading the new
	// head replays exactly one link from the cached ancestor.
	if _, err := s.AppendVersion(append([]byte(nil), versions[7]...)); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counter("ipdelta_store_chain_replays_total")
	if _, err := s.Version(8); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counter("ipdelta_store_chain_replays_total")
	if after != before {
		// Version 8 may itself have been cached by AppendVersion's head
		// read; either zero or one replay is fine, never a full chain.
		t.Logf("replays %d -> %d", before, after)
	}
	if after-before > 1 {
		t.Fatalf("ancestor replay applied %d links, want <= 1", after-before)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s, versions := buildCachedStore(t, 6, 13, WithCache(2), WithObserver(reg))
	for k := range versions {
		if _, err := s.Version(k); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cache.len(); n > 2 {
		t.Fatalf("cache holds %d entries, max 2", n)
	}
	if ev := reg.Snapshot().Counter("ipdelta_store_cache_evictions_total"); ev == 0 {
		t.Fatal("no evictions recorded after overflowing the cache")
	}
	// Evicted versions still materialize correctly.
	got, err := s.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[0]) {
		t.Fatal("Version(0) differs after eviction")
	}
}

func TestCacheDeltaBetweenMemoized(t *testing.T) {
	s, versions := buildCachedStore(t, 6, 14, WithCache(8))
	d1, err := s.DeltaBetween(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.DeltaBetween(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("DeltaBetween not memoized: distinct pointers for same (from,to)")
	}
	got, err := d1.Apply(versions[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[5]) {
		t.Fatal("memoized composed delta does not reproduce the target")
	}
}

// TestCacheSingleflightDedup drives matCache.do directly: N concurrent
// requests for one missing key must share a single computation.
func TestCacheSingleflightDedup(t *testing.T) {
	reg := obs.NewRegistry()
	c := newMatCache(8, reg)
	key := cacheKey{kind: kindVersion, to: 3}

	const waiters = 4
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	results := make(chan []byte, waiters+1)

	// wg covers the leader too: results is closed only after every sender
	// is done.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.do(key, func() (any, error) {
			calls.Add(1)
			close(entered)
			<-release
			return []byte("payload"), nil
		})
		if err != nil {
			t.Error(err)
		}
		results <- v.([]byte)
	}()
	<-entered

	for k := 0; k < waiters; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.do(key, func() (any, error) {
				calls.Add(1)
				return []byte("duplicate"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v.([]byte)
		}()
	}
	// Wait until every duplicate has registered against the in-flight
	// computation before releasing it.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counter("ipdelta_store_cache_dedup_waits_total") < waiters {
		if time.Now().After(deadline) {
			t.Fatal("duplicates never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("computation ran %d times, want 1", n)
	}
	close(results)
	for v := range results {
		if string(v) != "payload" {
			t.Fatalf("waiter observed %q, want the flight's payload", v)
		}
	}
	if misses := reg.Snapshot().Counter("ipdelta_store_cache_version_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

// TestCacheConcurrentVersionAppend exercises readers racing appends and the
// cache; it is primarily a -race target (see CI).
func TestCacheConcurrentVersionAppend(t *testing.T) {
	s, versions := buildCachedStore(t, 4, 15, WithCache(4))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(s.NumVersions())
				got, err := s.Version(i)
				if err != nil {
					t.Error(err)
					return
				}
				if i < len(versions) && !bytes.Equal(got, versions[i]) {
					t.Errorf("Version(%d) differs under concurrency", i)
					return
				}
				if j := rng.Intn(s.NumVersions()); j >= i {
					if _, err := s.DeltaBetween(i, j); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w))
	}
	for k := 0; k < 6; k++ {
		v := append([]byte(nil), versions[len(versions)-1]...)
		for p := 0; p < 50; p++ {
			v[(k*97+p*13)%len(v)]++
		}
		if _, err := s.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStoreCacheHitAllocs gates the hit path at zero allocations: a map
// probe and a list splice, no copies.
func TestStoreCacheHitAllocs(t *testing.T) {
	s, _ := buildCachedStore(t, 6, 16, WithCache(8))
	if _, err := s.Version(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeltaBetween(1, 5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Version(5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeltaBetween(1, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hit path allocates %.1f per op, want 0", allocs)
	}
}
