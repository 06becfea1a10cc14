package store

import (
	"unsafe"

	"ipdelta/internal/delta"
	"ipdelta/internal/lru"
	"ipdelta/internal/obs"
)

// Artifact kinds held by the materialization cache.
const (
	kindVersion = iota // a materialized version image of a plain store ([]byte)
	kindDelta          // a composed delta between two versions (*delta.Delta)
	numKinds
)

// cacheKey identifies a cached artifact: version `to` for kindVersion
// (from is zero), or the composed delta from→to for kindDelta.
type cacheKey struct {
	kind     uint8
	from, to int
}

// matCache is the store's materialization cache: an lru.Cache over
// version images and composed deltas, so N concurrent requests for the
// same cold artifact perform exactly one chain replay or composition. It
// is bounded in bytes (artifactCost): an artifact larger than the whole
// budget is handed to its callers and not kept. A chunked store puts
// composed deltas only in it; its Version images come from the chunks
// and belong to the caller.
//
// Coherence comes from the store's append-only shape: version i and the
// composed delta (i, j) are immutable once their releases exist, so
// cached artifacts never need invalidation — AppendVersion only grows the
// key space. Cached values are shared between callers and must be treated
// as read-only; every consumer in this module (diff, compose, invert,
// in-place convert, HTTP serving) only reads them.
type matCache struct {
	c *lru.Cache[cacheKey, any]
	cacheMetrics
}

// cacheMetrics holds the cache's pre-resolved handles, indexed by kind,
// and the lru hooks that feed its dedup-wait and eviction counters. The
// zero value is unobserved: nil handles, and nil hooks the lru never
// calls.
type cacheMetrics struct {
	hits, misses    [numKinds]*obs.Counter
	inflight, bytes *obs.Gauge
	onWait          func(cacheKey)
	onEvict         func(cacheKey, any)
}

// commandBytes is what one delta command costs the cache, its add data
// aside.
const commandBytes = int64(unsafe.Sizeof(delta.Command{}))

// artifactCost charges a cached artifact its resident bytes: the image
// length of a version, or the command array plus the add data of a
// composed delta.
//
//ipvet:allocfree
func artifactCost(v any) int64 {
	switch v := v.(type) {
	case []byte:
		return int64(len(v))
	case *delta.Delta:
		return int64(len(v.Commands))*commandBytes + v.AddedBytes()
	}
	return 0
}

// resolveCacheMetrics binds the cache metric set in reg; a nil reg
// resolves the unobserved zero value.
func resolveCacheMetrics(reg *obs.Registry) cacheMetrics {
	if reg == nil {
		return cacheMetrics{}
	}
	dedups := reg.Counter("ipdelta_store_cache_dedup_waits_total")
	evictions := reg.Counter("ipdelta_store_cache_evictions_total")
	bytes := reg.Gauge("ipdelta_store_cache_bytes")
	var m cacheMetrics
	m.hits[kindVersion] = reg.Counter("ipdelta_store_cache_version_hits_total")
	m.misses[kindVersion] = reg.Counter("ipdelta_store_cache_version_misses_total")
	m.hits[kindDelta] = reg.Counter("ipdelta_store_cache_delta_hits_total")
	m.misses[kindDelta] = reg.Counter("ipdelta_store_cache_delta_misses_total")
	m.inflight = reg.Gauge("ipdelta_store_cache_inflight")
	m.bytes = bytes
	m.onWait = func(cacheKey) { dedups.Inc() }
	// An artifact over the budget is inserted and evicted at once: it
	// counts as an eviction and leaves the gauge where it was.
	m.onEvict = func(_ cacheKey, v any) {
		evictions.Inc()
		bytes.Add(-artifactCost(v))
	}
	return m
}

// newMatCache builds a cache holding up to budget > 0 bytes of
// artifacts. reg may be nil.
func newMatCache(budget int64, reg *obs.Registry) *matCache {
	m := resolveCacheMetrics(reg)
	return &matCache{c: lru.New(budget, artifactCost, m.onEvict, m.onWait), cacheMetrics: m}
}

// do returns the cached value for key, or computes it with fn. Concurrent
// calls for the same missing key share one fn execution. The hit path is
// allocation-free.
func (c *matCache) do(key cacheKey, fn func() (any, error)) (any, error) {
	v, o, err := c.c.Do(key, func() (any, error) {
		c.misses[key.kind].Inc()
		c.inflight.Add(1)
		defer c.inflight.Add(-1)
		v, err := fn()
		if err == nil {
			c.bytes.Add(artifactCost(v))
		}
		return v, err
	})
	if o == lru.Hit {
		c.hits[key.kind].Inc()
	}
	return v, err
}

// nearestVersion returns the deepest cached version at or below i — the
// cheapest starting point for a chain replay — bumping its recency. The
// scan is O(cache size), far below one delta application.
//
//ipvet:allocfree
func (c *matCache) nearestVersion(i int) (int, []byte, bool) {
	key, v, ok := c.c.Max(func(k cacheKey) (int, bool) {
		return k.to, k.kind == kindVersion && k.to <= i
	})
	if !ok {
		return 0, nil, false
	}
	return key.to, v.([]byte), true
}

// len reports the current entry count (for tests).
//
//ipvet:allocfree
func (c *matCache) len() int { return c.c.Len() }

// resident reports the bytes the cached artifacts cost (for tests).
//
//ipvet:allocfree
func (c *matCache) resident() int64 { return c.c.Cost() }
