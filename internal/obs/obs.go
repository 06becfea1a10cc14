// Package obs is the stdlib-only observability layer: atomic counters,
// gauges, bounded-bucket histograms, and a lightweight stage-timer (span)
// API, aggregated by a Registry that serves Prometheus-style plain-text
// and JSON snapshots over HTTP.
//
// The design target is the conversion pipeline's zero-allocation
// contract: metric handles are resolved once, at component construction
// (Registry.Counter / Histogram / Stage are get-or-create and take a
// lock), and every per-event operation after that — Counter.Add,
// Histogram.Observe, Stage.Start/Span.End — is lock-free, map-free and
// allocation-free. Components call their handles unconditionally, so
// there is one instrumentation path. Handles from a nil registry are
// unobserved and do nothing: nil counters, gauges and histograms ignore
// updates, and a zero Stage neither reads the clock nor records.
//
// Metric naming follows the Prometheus conventions the rest of the
// ecosystem expects: `ipdelta_<component>_<what>_total` for counters,
// `..._nanos` / `..._bytes` histograms with the unit suffix, and a fixed
// label, if any, baked into the name at construction time (for example
// `ipdelta_convert_cycles_broken_total{policy="locally-minimum"}`), so
// the hot path never formats strings.
package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver (no-op), so
// call sites can keep unconditional handles.
//
//ipvet:allocfree
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
//
//ipvet:allocfree
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
//
//ipvet:allocfree
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value: set, adjusted, and snapshotted.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value. Safe on a nil receiver.
//
//ipvet:allocfree
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (negative to decrease).
//
//ipvet:allocfree
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (0 on nil).
//
//ipvet:allocfree
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed set of upper-bound buckets
// plus an overflow bucket, tracking the total count and sum. Bounds are
// immutable after construction; Observe is a short linear scan (bucket
// layouts stay under ~16 entries), lock-free and allocation-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	count  atomic.Int64
}

// newHistogram builds a histogram over the given ascending upper bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Safe on a nil receiver (no-op).
//
//ipvet:allocfree
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
//
//ipvet:allocfree
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
//
//ipvet:allocfree
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Standard bucket layouts. DurationBuckets covers 1µs–16s in powers of
// four (nanosecond values); SizeBuckets covers 64B–64MiB in powers of
// four. Both are documented in DESIGN.md §9 and must not be reordered:
// dashboards key on the bucket bounds.
var (
	DurationBuckets = []int64{
		1_000, 4_000, 16_000, 64_000, 256_000, // 1µs .. 256µs
		1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000, // 1ms .. 256ms
		1_000_000_000, 4_000_000_000, 16_000_000_000, // 1s .. 16s
	}
	SizeBuckets = []int64{
		64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
	}
)

// SpanEvent is one completed stage timing, delivered to the registry's
// optional sink callback.
type SpanEvent struct {
	// Name is the stage's histogram name.
	Name string
	// Start is when the span began.
	Start time.Time
	// Duration is the measured elapsed time.
	Duration time.Duration
}

// Stage is a pre-resolved handle for timing one pipeline stage: Start
// returns a Span whose End records the elapsed nanoseconds into the
// stage's histogram and forwards a SpanEvent to the registry sink, if
// one is set. Stage and Span are value types; a Start/End pair performs
// no heap allocations.
type Stage struct {
	reg  *Registry
	name string
	hist *Histogram
}

// Start begins timing. An unobserved Stage (no registry) returns the
// zero Span without reading the clock.
//
//ipvet:allocfree
func (s Stage) Start() Span {
	if s.reg == nil {
		return Span{}
	}
	return Span{stage: s, t0: time.Now()}
}

// Span is an in-flight stage timing.
type Span struct {
	stage Stage
	t0    time.Time
}

// End records the elapsed time, forwards it to the registry's sink if
// one is set, and returns it. The zero Span returns 0 at once.
//
//ipvet:allocfree
func (sp Span) End() time.Duration {
	if sp.stage.reg == nil {
		return 0
	}
	d := time.Since(sp.t0)
	sp.stage.hist.Observe(int64(d))
	if f, ok := sp.stage.reg.sink.Load().(sinkFunc); ok && f != nil {
		f(SpanEvent{Name: sp.stage.name, Start: sp.t0, Duration: d})
	}
	return d
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is accepted everywhere a registry is
// optional: resolving handles from it yields nil handles whose methods
// no-op.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram

	sink atomic.Value // of sinkFunc
}

// sinkFunc wraps the callback so atomic.Value sees one concrete type.
type sinkFunc func(SpanEvent)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// SetSink installs a callback invoked synchronously for every completed
// span. The callback must be fast and must not block; nil removes it.
func (r *Registry) SetSink(f func(SpanEvent)) {
	if r == nil {
		return
	}
	r.sink.Store(sinkFunc(f))
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry. Call at construction time, not per event.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Stage returns a stage timer recording into the named duration
// histogram (DurationBuckets). A nil registry returns an unobserved
// Stage, which neither reads the clock nor records.
func (r *Registry) Stage(name string) Stage {
	return Stage{reg: r, name: name, hist: r.Histogram(name, DurationBuckets)}
}

// BucketCount is one histogram bucket in a snapshot. Le is the
// inclusive upper bound; the overflow bucket has Inf set.
type BucketCount struct {
	Le    int64 `json:"le"`
	Inf   bool  `json:"inf,omitempty"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric, for tests, the JSON
// endpoint, and bench-baseline emission.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Values are read with
// atomic loads; a snapshot taken concurrently with updates is internally
// consistent per metric, not across metrics. Nil registries snapshot
// empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		hs.Buckets = make([]BucketCount, len(h.counts))
		for i := range h.counts {
			b := BucketCount{Count: h.counts[i].Load()}
			if i < len(h.bounds) {
				b.Le = h.bounds[i]
			} else {
				b.Inf = true
			}
			hs.Buckets[i] = b
		}
		s.Histograms[name] = hs
	}
	return s
}

// Counter returns a snapshotted counter value by name (0 when absent),
// a convenience for assertions.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// nopHandler discards every record (log/slog has no built-in discard
// handler at this language version).
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that discards everything — the default for
// components whose caller injected no logger, so call sites never need a
// nil check.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// OrNop returns l, or a discarding logger when l is nil.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return NopLogger()
	}
	return l
}
