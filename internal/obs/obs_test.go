package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total"); again != c {
		t.Fatalf("Counter is not get-or-create")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", SizeBuckets).Observe(1)
	r.Stage("d").Start().End()
	r.SetSink(func(SpanEvent) {})
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var c *Counter
	c.Add(1)
	var h *Histogram
	h.Observe(1)
	var g *Gauge
	g.Set(1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_bytes", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h_bytes"]
	if snap.Count != 6 || snap.Sum != 1+10+11+100+101+5000 {
		t.Fatalf("count/sum = %d/%d", snap.Count, snap.Sum)
	}
	wantCounts := []int64{2, 2, 2} // ≤10, ≤100, overflow
	for i, b := range snap.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d (%+v)", i, b.Count, wantCounts[i], snap.Buckets)
		}
	}
	if !snap.Buckets[2].Inf {
		t.Fatalf("last bucket should be the overflow bucket")
	}
}

func TestStageAndSink(t *testing.T) {
	r := NewRegistry()
	var events []SpanEvent
	r.SetSink(func(e SpanEvent) { events = append(events, e) })
	st := r.Stage("stage_nanos")
	sp := st.Start()
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration = %v", d)
	}
	if len(events) != 1 || events[0].Name != "stage_nanos" || events[0].Duration != d {
		t.Fatalf("sink events = %+v", events)
	}
	if got := r.Snapshot().Histograms["stage_nanos"].Count; got != 1 {
		t.Fatalf("stage histogram count = %d, want 1", got)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_nanos", DurationBuckets)
	st := r.Stage("s_nanos")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(3)
		h.Observe(12345)
		st.Start().End()
	})
	if allocs != 0 {
		t.Fatalf("hot-path metric ops allocate %.1f times per run, want 0", allocs)
	}
}

// TestZeroStageSpanIsFree pins the unobserved span: the zero Stage
// starts a zero Span without reading the clock, so End reports exactly
// 0 however long the span ran.
func TestZeroStageSpanIsFree(t *testing.T) {
	var st Stage
	sp := st.Start()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d != 0 {
		t.Fatalf("zero Stage span = %v, want 0", d)
	}
	var r *Registry
	if d := r.Stage("s_nanos").Start().End(); d != 0 {
		t.Fatalf("nil-registry Stage span = %v, want 0", d)
	}
}

// TestZeroHandlesAllocationFree is the allocation gate of the handles an
// unobserved component calls unconditionally: nil counter, gauge and
// histogram and the zero Stage.
func TestZeroHandlesAllocationFree(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		st Stage
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(3)
		c.Inc()
		g.Set(7)
		g.Add(-1)
		h.Observe(12345)
		st.Start().End()
	})
	if allocs != 0 {
		t.Fatalf("unobserved metric ops allocate %.1f times per run, want 0", allocs)
	}
}

func TestTextRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("g").Set(9)
	h := r.Histogram("lat_nanos{policy=\"lm\"}", []int64{100})
	h.Observe(50)
	h.Observe(500)
	text := r.Snapshot().Text()
	for _, want := range []string{
		"a_total 3\n",
		"g 9\n",
		`lat_nanos_bucket{policy="lm",le="100"} 1`,
		`lat_nanos_bucket{policy="lm",le="+Inf"} 2`,
		`lat_nanos_sum{policy="lm"} 550`,
		`lat_nanos_count{policy="lm"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total").Add(2)
	r.Histogram("lat_nanos", DurationBuckets).Observe(1500)

	// Plain text by default.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "req_total 2") {
		t.Fatalf("text scrape: code=%d body=%q", rec.Code, rec.Body.String())
	}

	// JSON on request.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json scrape: %v\n%s", err, rec.Body.String())
	}
	if snap.Counters["req_total"] != 2 {
		t.Fatalf("json counters = %+v", snap.Counters)
	}
	if h, ok := snap.Histograms["lat_nanos"]; !ok || h.Count != 1 {
		t.Fatalf("json histograms = %+v", snap.Histograms)
	}

	// Mutations rejected.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestNopLogger(t *testing.T) {
	// Must not panic or write anywhere.
	NopLogger().Info("hidden", "k", "v")
	if OrNop(nil) == nil {
		t.Fatal("OrNop(nil) returned nil")
	}
}
