// Package lru is the one build cache: an LRU map with singleflight,
// bounded by a budget of cost units. The store's materialization cache
// (charged in bytes) and the update server's per-release deltas (charged
// one unit each) are each a Cache with their own key, budget, cost and
// hooks. The package counts nothing: Do reports each call's Outcome and
// the caller bumps its own metrics.
package lru

import (
	"container/list"
	"sync"
)

// Outcome says how Do produced its value.
type Outcome uint8

const (
	Hit    Outcome = iota // the value was cached
	Miss                  // this call ran fn
	Waited                // this call waited for another call's fn
)

// entry is one cached value; list elements hold *entry.
type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one running fn. val and err are written before wg.Done
// releases the waiters.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Cache is an LRU of keyed values with singleflight: concurrent Do calls
// for one missing key run fn once, and the rest wait for it. The values
// it holds never cost more than its budget together. Cached values are
// shared between callers, who treat them as read-only. A Cache is safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	used    int64 // total cost of the cached values
	cost    func(V) int64
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	flights map[K]*flight[V]
	onEvict func(K, V)
	onWait  func(K)
}

// New returns a cache whose values cost at most budget together (budget
// must be positive). cost charges a value once, when fn returns it, and
// must not be negative; a nil cost charges 1 per value, so budget is then
// an entry count. onEvict, if not nil, runs once for each value the
// budget evicts, and for each value that costs more than the whole
// budget, which is handed to its callers but never retained. onWait, if
// not nil, runs when a Do call is about to wait for another call's fn,
// before it blocks. Neither runs with the cache's lock held, so both may
// call back into the cache.
func New[K comparable, V any](budget int64, cost func(V) int64, onEvict func(K, V), onWait func(K)) *Cache[K, V] {
	if budget <= 0 {
		panic("lru: non-positive budget")
	}
	return &Cache[K, V]{
		budget:  budget,
		cost:    cost,
		entries: make(map[K]*list.Element),
		order:   list.New(),
		flights: make(map[K]*flight[V]),
		onEvict: onEvict,
		onWait:  onWait,
	}
}

// Do returns the value cached under key, or runs fn to produce it. No
// lock is held while fn runs, and later calls for the same key wait for
// it instead of running fn again. A value fn returns with a nil error is
// cached, and least recently used values are evicted until the cached
// cost fits the budget; a value that alone costs more than the budget
// goes to this call and its waiters, then to onEvict, and evicts
// nothing. An error is not cached, every waiter gets it, and the next
// call runs fn again. A hit allocates nothing.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if v, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		if c.onWait != nil {
			c.onWait(key)
		}
		f.wg.Wait()
		return f.val, Waited, f.err
	}
	f := &flight[V]{}
	f.wg.Add(1)
	c.flights[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()
	cost := int64(1)
	if f.err == nil && c.cost != nil {
		cost = c.cost(f.val)
	}

	c.mu.Lock()
	delete(c.flights, key)
	var evicted []*entry[K, V]
	if f.err == nil {
		e := &entry[K, V]{key, f.val, cost}
		if cost > c.budget {
			evicted = append(evicted, e)
		} else {
			c.entries[key] = c.order.PushFront(e)
			c.used += cost
			for c.used > c.budget {
				old := c.order.Remove(c.order.Back()).(*entry[K, V])
				delete(c.entries, old.key)
				c.used -= old.cost
				evicted = append(evicted, old)
			}
		}
	}
	c.mu.Unlock()
	f.wg.Done()
	if c.onEvict != nil {
		for _, e := range evicted {
			c.onEvict(e.key, e.val)
		}
	}
	return f.val, Miss, f.err
}

// getLocked returns the value cached under key and marks it most
// recently used; callers hold c.mu.
//
//ipvet:allocfree
func (c *Cache[K, V]) getLocked(key K) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Max returns the cached value whose key ranks highest among the keys
// rank accepts, and marks it most recently used. It visits every entry
// with the lock held, so rank must be cheap and must not call into the
// cache.
//
//ipvet:allocfree
func (c *Cache[K, V]) Max(rank func(K) (int, bool)) (K, V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *list.Element
	bestRank := 0
	for key, el := range c.entries {
		if r, ok := rank(key); ok && (best == nil || r > bestRank) {
			best, bestRank = el, r
		}
	}
	if best == nil {
		var e entry[K, V]
		return e.key, e.val, false
	}
	c.order.MoveToFront(best)
	e := best.Value.(*entry[K, V])
	return e.key, e.val, true
}

// Len reports how many values are cached.
//
//ipvet:allocfree
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cost reports the total cost of the cached values, at most the budget.
//
//ipvet:allocfree
func (c *Cache[K, V]) Cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
