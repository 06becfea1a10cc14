package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipdelta/internal/graph"
	"ipdelta/internal/obs"
)

// buildCachedStore mirrors buildChainStore but applies store options.
func buildCachedStore(t testing.TB, n int, seed int64, opts ...Option) (*Store, [][]byte) {
	t.Helper()
	return buildSizedStore(t, n, 24<<10, seed, opts...)
}

// buildSizedStore is buildCachedStore over versions of size bytes.
func buildSizedStore(t testing.TB, n, size int, seed int64, opts ...Option) (*Store, [][]byte) {
	t.Helper()
	versions := chainVersions(n, size, seed)
	s := New(versions[0], opts...)
	for k := 1; k < n; k++ {
		if _, err := s.AppendVersion(versions[k]); err != nil {
			t.Fatal(err)
		}
	}
	return s, versions
}

// TestCacheVersionCorrectness: eight 384 KiB versions through a 1 MiB
// budget, which holds two of them.
func TestCacheVersionCorrectness(t *testing.T) {
	reg := obs.NewRegistry()
	s, versions := buildSizedStore(t, 8, 384<<10, 11, WithCache(1), WithObserver(reg))
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
	if ev := reg.Snapshot().Counter("ipdelta_store_cache_evictions_total"); ev == 0 {
		t.Fatal("no evictions: the budget held every version")
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
	// WithCache(0) is no cache: a repeat read is no hit.
	reg0 := obs.NewRegistry()
	s0, _ := buildCachedStore(t, 8, 12, WithCache(0), WithObserver(reg0))
	for range 2 {
		if _, err := s0.Version(7); err != nil {
			t.Fatal(err)
		}
	}
	if hits := reg0.Snapshot().Counter("ipdelta_store_cache_version_hits_total"); hits != 0 {
		t.Fatalf("WithCache(0): version hits = %d, want 0", hits)
	}
}

// TestCacheLRUEviction: six 400 KiB versions through a 1 MiB budget,
// which holds two of them.
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s, versions := buildSizedStore(t, 6, 400<<10, 13, WithCache(1), WithObserver(reg))
	for k := range versions {
		if _, err := s.Version(k); err != nil {
			t.Fatal(err)
		}
		if b := s.cache.resident(); b > 1<<20 {
			t.Fatalf("Version(%d): cache holds %d bytes, budget %d", k, b, 1<<20)
		}
	}
	if n := s.cache.len(); n > 2 {
		t.Fatalf("cache holds %d entries, max 2", n)
	}
	snap := reg.Snapshot()
	if ev := snap.Counter("ipdelta_store_cache_evictions_total"); ev == 0 {
		t.Fatal("no evictions recorded after overflowing the cache")
	}
	if g, b := snap.Gauges["ipdelta_store_cache_bytes"], s.cache.resident(); g != b {
		t.Fatalf("ipdelta_store_cache_bytes = %d, cache holds %d", g, b)
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
	c := newMatCache(8<<20, reg)
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

// budgetVersions returns n releases of exactly 1 MiB: a random base, and
// each release rewrites four 8 KiB blocks of the one before and swaps two
// 16 KiB blocks, so its in-place conversion has cycles to break.
func budgetVersions(n int, seed int64) [][]byte {
	const size, block = 1 << 20, 8 << 10
	rng := rand.New(rand.NewSource(seed))
	base := make([]byte, size)
	rng.Read(base)
	versions := [][]byte{base}
	for k := 1; k < n; k++ {
		v := append([]byte(nil), versions[k-1]...)
		for range 4 {
			at := rng.Intn(size/block) * block
			rng.Read(v[at : at+block])
		}
		a, b := rng.Intn(size/(2*block))*2*block, rng.Intn(size/(2*block))*2*block
		tmp := append([]byte(nil), v[a:a+2*block]...)
		copy(v[a:a+2*block], v[b:b+2*block])
		copy(v[b:b+2*block], tmp)
		versions = append(versions, v)
	}
	return versions
}

// TestStoreCacheBudget: 1 MiB versions through a 1 MiB budget, on a plain
// and a chunked store, with readers racing appends. After every call the
// cache holds at most its budget, and every artifact it serves is right:
// versions match, composed deltas rebuild their target, and in-place
// deltas satisfy Equation 2 and apply in place to the head they were
// built for. It is a -race target (see CI).
func TestStoreCacheBudget(t *testing.T) {
	const budget = 1 << 20
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"chunked", []Option{WithChunking(nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			versions := budgetVersions(9, 17)
			reg := obs.NewRegistry()
			s := New(versions[0], append(tc.opts, WithCache(1), WithObserver(reg))...)
			within := func(op string) bool {
				if b := s.cache.resident(); b > budget {
					t.Errorf("%s: cache holds %d bytes, budget %d", op, b, budget)
					return false
				}
				return true
			}
			for _, v := range versions[1:3] {
				if _, err := s.AppendVersion(v); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for it := range 9 {
						if !budgetRead(t, s, versions, rng, it%3) || !within(fmt.Sprintf("reader %d op %d", w, it)) {
							return
						}
					}
				}()
			}
			for k, v := range versions[3:] {
				if _, err := s.AppendVersion(v); err != nil {
					t.Fatal(err)
				}
				if !within(fmt.Sprintf("append %d", k+3)) {
					break
				}
			}
			wg.Wait()
			// The composed deltas from version 0 add up to more than the
			// budget, so a chunked store, which caches no image, evicts too.
			for j := 1; j < len(versions); j++ {
				d, err := s.DeltaBetween(0, j)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := d.Apply(versions[0]); err != nil || !bytes.Equal(got, versions[j]) {
					t.Fatalf("DeltaBetween(0, %d) does not rebuild %d (err %v)", j, j, err)
				}
				if !within(fmt.Sprintf("DeltaBetween(0, %d)", j)) {
					break
				}
			}
			snap := reg.Snapshot()
			if snap.Counter("ipdelta_store_cache_evictions_total") == 0 {
				t.Error("no evictions: the budget held every artifact")
			}
			if g, b := snap.Gauges["ipdelta_store_cache_bytes"], s.cache.resident(); g != b {
				t.Errorf("ipdelta_store_cache_bytes = %d, cache holds %d", g, b)
			}
		})
	}
}

// budgetRead runs one checked read on s: Version, DeltaBetween or
// InPlaceDeltaTo by op. It reports whether the result was right.
func budgetRead(t *testing.T, s *Store, versions [][]byte, rng *rand.Rand, op int) bool {
	n0 := s.NumVersions()
	i := rng.Intn(n0)
	switch op {
	case 0:
		got, err := s.Version(i)
		if err != nil || !bytes.Equal(got, versions[i]) {
			t.Errorf("Version(%d) differs (err %v)", i, err)
			return false
		}
	case 1:
		j := i + rng.Intn(n0-i)
		d, err := s.DeltaBetween(i, j)
		if err != nil {
			t.Errorf("DeltaBetween(%d, %d): %v", i, j, err)
			return false
		}
		if got, err := d.Apply(versions[i]); err != nil || !bytes.Equal(got, versions[j]) {
			t.Errorf("DeltaBetween(%d, %d) does not rebuild %d (err %v)", i, j, j, err)
			return false
		}
	default:
		d, _, err := s.InPlaceDeltaTo(i, graph.LocallyMinimum{})
		if err != nil {
			t.Errorf("InPlaceDeltaTo(%d): %v", i, err)
			return false
		}
		if err := d.CheckInPlace(); err != nil {
			t.Errorf("InPlaceDeltaTo(%d): %v", i, err)
			return false
		}
		buf := make([]byte, d.InPlaceBufLen())
		copy(buf, versions[i])
		if err := d.ApplyInPlace(buf); err != nil {
			t.Errorf("InPlaceDeltaTo(%d) does not apply: %v", i, err)
			return false
		}
		// The head moved while appends raced the call: the delta targets
		// one of the heads seen from n0-1 on.
		got := buf[:d.VersionLen]
		for h := n0 - 1; h < s.NumVersions(); h++ {
			if bytes.Equal(got, versions[h]) {
				return true
			}
		}
		t.Errorf("InPlaceDeltaTo(%d) rebuilds no head from %d on", i, n0-1)
		return false
	}
	return true
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
