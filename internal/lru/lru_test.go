package lru

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a fn that yields v and counts its runs.
func value(v int, runs *atomic.Int64) func() (int, error) {
	return func() (int, error) {
		runs.Add(1)
		return v, nil
	}
}

// gatedFlight starts a Do on key whose fn blocks until release closes,
// then joins waiters more Do calls to the flight and returns the
// channel of all their outcomes once every waiter is about to wait. fn
// returns val, or fail if not nil.
func gatedFlight(t *testing.T, c *Cache[int, int], waiting *atomic.Int64, key, val int, fail error, waiters int, runs *atomic.Int64, release chan struct{}) <-chan result {
	t.Helper()
	out := make(chan result, waiters+1)
	entered := make(chan struct{})
	go func() {
		v, o, err := c.Do(key, func() (int, error) {
			runs.Add(1)
			close(entered)
			<-release
			return val, fail
		})
		out <- result{v, o, err}
	}()
	<-entered
	for range waiters {
		go func() {
			v, o, err := c.Do(key, value(-1, runs))
			out <- result{v, o, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for waiting.Load() < int64(waiters) {
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

type result struct {
	v   int
	o   Outcome
	err error
}

// TestCacheSingleflight: N concurrent Do calls on one cold key run fn
// once, all of them see its value, and the next call is a hit.
func TestCacheSingleflight(t *testing.T) {
	const waiters = 7
	var waiting, runs atomic.Int64
	c := New[int, int](4, nil, nil, func(int) { waiting.Add(1) })
	release := make(chan struct{})
	out := gatedFlight(t, c, &waiting, 1, 42, nil, waiters, &runs, release)
	close(release)
	count := map[Outcome]int{}
	for range waiters + 1 {
		r := <-out
		if r.err != nil || r.v != 42 {
			t.Fatalf("Do = %d, %v; want the flight's 42", r.v, r.err)
		}
		count[r.o]++
	}
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if count[Miss] != 1 || count[Waited] != waiters {
		t.Fatalf("outcomes %v, want 1 miss and %d waits", count, waiters)
	}
	if v, o, err := c.Do(1, value(-1, &runs)); v != 42 || o != Hit || err != nil {
		t.Fatalf("repeat Do = %d, %v, %v; want a hit on 42", v, o, err)
	}
}

// TestCacheErrorNotCached: a failing fn is not cached, every waiter gets
// its error, and the next Do runs fn again.
func TestCacheErrorNotCached(t *testing.T) {
	const waiters = 3
	var waiting, runs atomic.Int64
	c := New[int, int](4, nil, nil, func(int) { waiting.Add(1) })
	boom := errors.New("boom")
	release := make(chan struct{})
	out := gatedFlight(t, c, &waiting, 1, 0, boom, waiters, &runs, release)
	close(release)
	for range waiters + 1 {
		if r := <-out; !errors.Is(r.err, boom) {
			t.Fatalf("Do error = %v, want the flight's error", r.err)
		}
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("failed fn left %d entries", n)
	}
	if v, o, err := c.Do(1, value(7, &runs)); v != 7 || o != Miss || err != nil {
		t.Fatalf("Do after failure = %d, %v, %v; want a miss that runs fn", v, o, err)
	}
	if runs.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", runs.Load())
	}
}

// TestCacheEvictsLRU: past the bound the least recently used value goes,
// a hit counts as a use, and the eviction callback runs once per evicted
// entry without the lock held.
func TestCacheEvictsLRU(t *testing.T) {
	var runs atomic.Int64
	var evicted []int
	var c *Cache[int, int]
	c = New[int, int](3, nil, func(k, v int) {
		if k*10 != v {
			t.Errorf("evicted %d with value %d", k, v)
		}
		// Calls back into the cache: deadlocks if the lock is held.
		if n := c.Len(); n != 3 {
			t.Errorf("Len in callback = %d, want 3", n)
		}
		evicted = append(evicted, k)
	}, nil)
	for k := range 3 {
		c.Do(k, value(k*10, &runs))
	}
	c.Do(0, value(-1, &runs)) // 0 is now the most recently used
	c.Do(3, value(30, &runs)) // evicts 1
	c.Do(4, value(40, &runs)) // evicts 2
	c.Do(0, value(-1, &runs)) // hit
	c.Do(5, value(50, &runs)) // evicts 3
	if want := []int{1, 2, 3}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	for _, k := range []int{0, 4, 5} {
		if _, o, _ := c.Do(k, value(-1, &runs)); o != Hit {
			t.Fatalf("key %d: outcome %v, want a hit", k, o)
		}
	}
	if runs.Load() != 6 {
		t.Fatalf("fn ran %d times, want 6", runs.Load())
	}
}

// TestCacheMax: Max picks the highest-ranked accepted key and makes it
// the most recently used.
func TestCacheMax(t *testing.T) {
	var runs atomic.Int64
	c := New[int, int](3, nil, nil, nil)
	for k := range 3 {
		c.Do(k, value(k*10, &runs))
	}
	below := func(lim int) func(int) (int, bool) {
		return func(k int) (int, bool) { return k, k <= lim }
	}
	if k, v, ok := c.Max(below(1)); !ok || k != 1 || v != 10 {
		t.Fatalf("Max(<= 1) = %d, %d, %v; want key 1", k, v, ok)
	}
	if _, _, ok := c.Max(below(-1)); ok {
		t.Fatal("Max found a key when rank accepts none")
	}
	c.Do(3, value(30, &runs)) // evicts 0, not the touched 1
	if _, o, _ := c.Do(1, value(-1, &runs)); o != Hit {
		t.Fatal("Max did not mark its result as used")
	}
}

// TestCacheConcurrentKeys drives many keys past the bound from several
// goroutines; it is a -race target.
func TestCacheConcurrentKeys(t *testing.T) {
	var runs atomic.Int64
	var evictions atomic.Int64
	c := New[int, int](8, nil, func(int, int) { evictions.Add(1) }, nil)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				k := (i*7 + w) % 24
				if v, _, err := c.Do(k, value(k*10, &runs)); err != nil || v != k*10 {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Len(); n != 8 {
		t.Fatalf("Len = %d, want the bound 8", n)
	}
	if got, want := evictions.Load(), runs.Load()-8; got != want {
		t.Fatalf("%d evictions for %d stored values, want %d", got, runs.Load(), want)
	}
}

// self charges an int value its own size.
func self(v int) int64 { return int64(v) }

// TestCacheCostEvictsToBudget: a value past the budget evicts least
// recently used values until the cached cost fits, however many that
// takes, and the cost of every evicted value is released.
func TestCacheCostEvictsToBudget(t *testing.T) {
	var runs atomic.Int64
	var evicted []int
	c := New[int, int](10, self, func(k, _ int) { evicted = append(evicted, k) }, nil)
	do := func(k, v int) {
		t.Helper()
		if _, _, err := c.Do(k, value(v, &runs)); err != nil {
			t.Fatal(err)
		}
		if used := c.Cost(); used > 10 {
			t.Fatalf("after Do(%d): cost %d over the budget 10", k, used)
		}
	}
	do(0, 4)
	do(1, 3)
	do(2, 2)
	do(0, -1) // a hit: 0 is now the most recently used
	if used, n := c.Cost(), c.Len(); used != 9 || n != 3 {
		t.Fatalf("cost %d over %d values, want 9 over 3", used, n)
	}
	do(3, 5) // 14 > 10: evicts 1, then 2
	if want := []int{1, 2}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	if used, n := c.Cost(), c.Len(); used != 9 || n != 2 {
		t.Fatalf("cost %d over %d values, want 9 over 2", used, n)
	}
	do(4, 10) // exactly the budget: evicts 0 and 3, and is kept
	if used, n := c.Cost(), c.Len(); used != 10 || n != 1 {
		t.Fatalf("cost %d over %d values, want 10 over 1", used, n)
	}
	if _, o, _ := c.Do(4, value(-1, &runs)); o != Hit {
		t.Fatalf("a value of exactly the budget was not kept: outcome %v", o)
	}
}

// TestCacheOverBudgetValue: a value that alone costs more than the
// budget reaches the call that ran fn and every waiter, goes to onEvict
// once, evicts nothing and is not retained.
func TestCacheOverBudgetValue(t *testing.T) {
	const waiters = 3
	var waiting, runs atomic.Int64
	type eviction struct{ k, v int }
	var mu sync.Mutex
	var evicted []eviction
	c := New[int, int](10, self, func(k, v int) {
		mu.Lock()
		evicted = append(evicted, eviction{k, v})
		mu.Unlock()
	}, func(int) { waiting.Add(1) })
	c.Do(0, value(4, &runs))
	release := make(chan struct{})
	out := gatedFlight(t, c, &waiting, 9, 11, nil, waiters, &runs, release)
	close(release)
	count := map[Outcome]int{}
	for range waiters + 1 {
		r := <-out
		if r.err != nil || r.v != 11 {
			t.Fatalf("Do = %d, %v; want the flight's 11", r.v, r.err)
		}
		count[r.o]++
	}
	if count[Miss] != 1 || count[Waited] != waiters {
		t.Fatalf("outcomes %v, want 1 miss and %d waits", count, waiters)
	}
	mu.Lock()
	got := slices.Clone(evicted)
	mu.Unlock()
	if want := []eviction{{9, 11}}; !slices.Equal(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
	if used, n := c.Cost(), c.Len(); used != 4 || n != 1 {
		t.Fatalf("cost %d over %d values, want the untouched 4 over 1", used, n)
	}
	if _, o, _ := c.Do(0, value(-1, &runs)); o != Hit {
		t.Fatal("the over-budget value evicted a resident one")
	}
	if v, o, _ := c.Do(9, value(11, &runs)); v != 11 || o != Miss {
		t.Fatalf("repeat Do(9) = %d, %v; want a miss: the value was not retained", v, o)
	}
}

// TestCacheCostConcurrent drives values of mixed cost past the budget
// from several goroutines; it is a -race target. The cached cost never
// exceeds the budget, and every charged unit is either resident or was
// handed to onEvict.
func TestCacheCostConcurrent(t *testing.T) {
	const budget = 40
	var charged, released atomic.Int64
	c := New[int, int](budget, func(v int) int64 {
		charged.Add(int64(v))
		return int64(v)
	}, func(_, v int) { released.Add(int64(v)) }, nil)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runs atomic.Int64
			for i := range 500 {
				k := (i*7 + w) % 24
				// Costs 1..45: some keys cost more than the budget.
				if v, _, err := c.Do(k, value(1+k*2, &runs)); err != nil || v != 1+k*2 {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
				if used := c.Cost(); used > budget {
					t.Errorf("cost %d over the budget %d", used, budget)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.Cost(), charged.Load()-released.Load(); got != want {
		t.Fatalf("resident cost %d, want charged %d - released %d = %d",
			got, charged.Load(), released.Load(), want)
	}
}

// TestCacheHitAllocs gates the hit path at zero allocations.
func TestCacheHitAllocs(t *testing.T) {
	type key struct {
		kind     uint8
		from, to int
	}
	c := New[key, []byte](64, func(b []byte) int64 { return int64(len(b)) }, nil, nil)
	k := key{to: 3}
	fn := func() ([]byte, error) { return []byte("image"), nil }
	c.Do(k, fn)
	allocs := testing.AllocsPerRun(200, func() {
		if _, o, _ := c.Do(k, fn); o != Hit {
			t.Fatal("not a hit")
		}
	})
	if allocs > 0 {
		t.Fatalf("hit path allocates %.1f per op, want 0", allocs)
	}
}
