// Package httpdelta implements delta encoding for HTTP resources in the
// style of RFC 3229 ("Delta encoding in HTTP") — the related-work scenario
// the paper cites for WWW latency reduction. A server remembers recent
// versions of a resource; a client that presents the entity tag of its
// cached copy receives a delta (226 IM Used) instead of the full body.
//
// The implementation uses this module's wire format as the
// instance-manipulation method, advertised as "ipdelta".
package httpdelta

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/diff"
	"ipdelta/internal/obs"
)

// Protocol constants.
const (
	// IMName is the instance-manipulation identifier in A-IM/IM headers.
	IMName = "ipdelta"
	// StatusIMUsed is 226 IM Used (RFC 3229).
	StatusIMUsed = http.StatusIMUsed
	headerAIM    = "A-IM"
	headerIM     = "IM"
	headerBase   = "Delta-Base"
)

// etagOf derives a strong entity tag from a body.
func etagOf(body []byte) string {
	return fmt.Sprintf("\"%08x-%x\"", crc32.ChecksumIEEE(body), len(body))
}

// Resource serves one mutable resource with delta encoding. It implements
// http.Handler for GET requests.
type Resource struct {
	algo        diff.Algorithm
	maxVersions int
	obsReg      *obs.Registry
	met         *resourceMetrics
	log         *slog.Logger

	mu       sync.RWMutex
	body     []byte
	etag     string
	versions map[string][]byte // recent versions by etag
	order    []string          // eviction order, oldest first
}

// resourceMetrics holds the pre-resolved handles of an observed Resource
// (DESIGN.md §9).
type resourceMetrics struct {
	requests     *obs.Counter // all GETs served
	deltaHits    *obs.Counter // 226 IM Used responses
	notModified  *obs.Counter // 304 responses
	fullBodies   *obs.Counter // 200 full-body responses
	bytesWritten *obs.Counter // response body bytes

	requestStage obs.Stage // whole-request latency
}

func resolveResourceMetrics(r *obs.Registry) *resourceMetrics {
	return &resourceMetrics{
		requests:     r.Counter("ipdelta_http_requests_total"),
		deltaHits:    r.Counter("ipdelta_http_delta_responses_total"),
		notModified:  r.Counter("ipdelta_http_not_modified_total"),
		fullBodies:   r.Counter("ipdelta_http_full_responses_total"),
		bytesWritten: r.Counter("ipdelta_http_bytes_written_total"),
		requestStage: r.Stage("ipdelta_http_request_nanos"),
	}
}

// ResourceOption customizes a Resource.
type ResourceOption func(*Resource)

// WithAlgorithm selects the differencing algorithm (default linear).
func WithAlgorithm(a diff.Algorithm) ResourceOption {
	return func(r *Resource) { r.algo = a }
}

// WithMaxVersions bounds how many old versions stay delta-servable
// (default 8, minimum 1).
func WithMaxVersions(n int) ResourceOption {
	return func(r *Resource) {
		if n < 1 {
			n = 1
		}
		r.maxVersions = n
	}
}

// WithObserver attaches a metrics registry: the resource then counts
// requests by response class (delta, not-modified, full body), response
// bytes, and request latency. Handles resolve once here.
func WithObserver(reg *obs.Registry) ResourceOption {
	return func(r *Resource) { r.obsReg = reg }
}

// WithLogger sets the structured logger for per-request lines. The
// default discards everything.
func WithLogger(l *slog.Logger) ResourceOption {
	return func(r *Resource) { r.log = l }
}

// NewResource creates a resource with an initial body.
func NewResource(body []byte, opts ...ResourceOption) *Resource {
	r := &Resource{
		algo:        diff.NewLinear(),
		maxVersions: 8,
		versions:    make(map[string][]byte),
	}
	for _, o := range opts {
		o(r)
	}
	if r.obsReg != nil {
		r.met = resolveResourceMetrics(r.obsReg)
	}
	r.log = obs.OrNop(r.log)
	r.Update(body)
	return r
}

// Update publishes a new version of the resource.
func (r *Resource) Update(body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.body = append([]byte(nil), body...)
	r.etag = etagOf(r.body)
	if _, ok := r.versions[r.etag]; !ok {
		r.versions[r.etag] = r.body
		r.order = append(r.order, r.etag)
		for len(r.order) > r.maxVersions {
			delete(r.versions, r.order[0])
			r.order = r.order[1:]
		}
	}
}

// ETag returns the current entity tag.
func (r *Resource) ETag() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.etag
}

// ServeHTTP implements http.Handler: full body for plain GETs, 304 for
// current caches, 226 + delta when the client's base version is known and
// the client accepts the ipdelta instance manipulation.
func (r *Resource) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var span obs.Span
	start := time.Now()
	if r.met != nil {
		r.met.requests.Inc()
		span = r.met.requestStage.Start()
	}
	status, n := r.serveGET(w, req)
	if r.met != nil {
		span.End()
		r.met.bytesWritten.Add(int64(n))
		switch status {
		case StatusIMUsed:
			r.met.deltaHits.Inc()
		case http.StatusNotModified:
			r.met.notModified.Inc()
		default:
			r.met.fullBodies.Inc()
		}
	}
	r.log.Info("request",
		"component", "httpdelta", "remote", req.RemoteAddr, "status", status,
		"bytes", n, "duration_ms", time.Since(start).Milliseconds())
}

// serveGET answers one GET and reports the status and body bytes written.
func (r *Resource) serveGET(w http.ResponseWriter, req *http.Request) (status, bytesOut int) {
	r.mu.RLock()
	body, etag := r.body, r.etag
	clientTag := req.Header.Get("If-None-Match")
	var base []byte
	deltaOK := strings.Contains(req.Header.Get(headerAIM), IMName)
	if deltaOK && clientTag != "" && clientTag != etag {
		base = r.versions[clientTag]
	}
	r.mu.RUnlock()

	w.Header().Set("ETag", etag)
	if clientTag == etag {
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified, 0
	}
	if base != nil {
		d, err := r.algo.Diff(base, body)
		if err == nil {
			var buf bytes.Buffer
			if _, err := codec.Encode(&buf, d, codec.FormatOrdered); err == nil && buf.Len() < len(body) {
				w.Header().Set(headerIM, IMName)
				w.Header().Set(headerBase, clientTag)
				w.WriteHeader(StatusIMUsed)
				n, _ := w.Write(buf.Bytes())
				return StatusIMUsed, n
			}
		}
	}
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(body)
	return http.StatusOK, n
}

// Client fetches delta-encoded resources, keeping one cached copy per URL.
type Client struct {
	http *http.Client

	mu    sync.Mutex
	cache map[string]*cached
	// TransferredBytes counts body bytes received, for savings accounting.
	transferred int64
}

type cached struct {
	etag string
	body []byte
}

// Errors reported by the client.
var (
	// ErrBadDelta means the server sent a delta the client could not apply
	// to its cached base.
	ErrBadDelta = errors.New("httpdelta: server delta does not apply to cached base")
)

// NewClient wraps an http.Client (nil means http.DefaultClient).
func NewClient(h *http.Client) *Client {
	if h == nil {
		h = http.DefaultClient
	}
	return &Client{http: h, cache: make(map[string]*cached)}
}

// TransferredBytes returns total body bytes received so far.
func (c *Client) TransferredBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transferred
}

// Get fetches url, using delta encoding against the cached copy when
// possible, and returns the current resource body.
func (c *Client) Get(url string) ([]byte, error) {
	c.mu.Lock()
	prev := c.cache[url]
	c.mu.Unlock()

	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(headerAIM, IMName)
	if prev != nil {
		req.Header.Set("If-None-Match", prev.etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.transferred += int64(len(payload))
	c.mu.Unlock()

	switch resp.StatusCode {
	case http.StatusNotModified:
		if prev == nil {
			return nil, fmt.Errorf("httpdelta: 304 without a cached copy")
		}
		return prev.body, nil
	case StatusIMUsed:
		if prev == nil || resp.Header.Get(headerBase) != prev.etag {
			return nil, ErrBadDelta
		}
		d, _, err := codec.Decode(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
		}
		body, err := d.Apply(prev.body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
		}
		if got := etagOf(body); got != resp.Header.Get("ETag") {
			return nil, fmt.Errorf("%w: reconstructed etag %s != %s", ErrBadDelta, got, resp.Header.Get("ETag"))
		}
		c.store(url, resp.Header.Get("ETag"), body)
		return body, nil
	case http.StatusOK:
		c.store(url, resp.Header.Get("ETag"), payload)
		return payload, nil
	default:
		return nil, fmt.Errorf("httpdelta: unexpected status %s", resp.Status)
	}
}

func (c *Client) store(url, etag string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[url] = &cached{etag: etag, body: body}
}
