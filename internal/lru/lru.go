// Package lru is the one build cache: a bounded LRU map with singleflight.
// The store's materialization cache, the update server's per-release
// deltas and the recipe differ's chunked inputs are each a Cache with
// their own key, bound and hooks. The package counts nothing: Do reports
// each call's Outcome and the caller bumps its own metrics.
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
	key K
	val V
}

// flight is one running fn. val and err are written before wg.Done
// releases the waiters.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Cache is a bounded LRU of keyed values with singleflight: concurrent
// Do calls for one missing key run fn once, and the rest wait for it.
// Cached values are shared between callers, who treat them as read-only.
// A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	flights map[K]*flight[V]
	onEvict func(K, V)
	onWait  func(K)
}

// New returns a cache that holds at most max values (max must be
// positive). onEvict, if not nil, runs once for each value the bound
// evicts. onWait, if not nil, runs when a Do call is about to wait for
// another call's fn, before it blocks. Neither runs with the cache's
// lock held, so both may call back into the cache.
func New[K comparable, V any](max int, onEvict func(K, V), onWait func(K)) *Cache[K, V] {
	if max <= 0 {
		panic("lru: non-positive bound")
	}
	return &Cache[K, V]{
		max:     max,
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
// cached, evicting the least recently used value past the bound; an
// error is not cached, every waiter gets it, and the next call runs fn
// again. A hit allocates nothing.
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

	c.mu.Lock()
	delete(c.flights, key)
	var evicted *entry[K, V]
	if f.err == nil {
		c.entries[key] = c.order.PushFront(&entry[K, V]{key, f.val})
		if c.order.Len() > c.max {
			evicted = c.order.Remove(c.order.Back()).(*entry[K, V])
			delete(c.entries, evicted.key)
		}
	}
	c.mu.Unlock()
	f.wg.Done()
	if evicted != nil && c.onEvict != nil {
		c.onEvict(evicted.key, evicted.val)
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
