package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// cmdServe exposes a store over HTTP: version images, direct in-place
// deltas to the newest version, and the server's own metrics.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	listen := fs.String("listen", "127.0.0.1:7080", "listen address")
	policyName := fs.String("policy", "locally-minimum", "cycle-breaking policy for served deltas")
	cacheSize := fs.Int("cache", 64, "materialization cache entries (0 disables; versions and composed deltas are replayed per request)")
	diffName := fs.String("diff", "linear", "differencing algorithm for appended versions: linear, greedy, recipe, ...")
	chunked := fs.Bool("chunked", false, "enable the chunked recipe tier: versions dedup into a content-addressed chunk store, and served deltas are sourced from recipe diffs")
	verbose := fs.Bool("v", false, "log each request (structured, stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return errors.New("serve: -store is required")
	}
	algo, err := diff.ByName(*diffName)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	// The cache and its hit/miss/dedup counters attach at load time, so
	// /metrics shows the serving hot path from the first request.
	storeOpts := []store.Option{store.WithObserver(reg), store.WithAlgorithm(algo)}
	if *cacheSize > 0 {
		storeOpts = append(storeOpts, store.WithCache(*cacheSize))
	}
	if *chunked {
		storeOpts = append(storeOpts, store.WithChunking(nil))
	}
	s, err := loadStore(*storePath, storeOpts...)
	if err != nil {
		return err
	}
	policy, err := graph.PolicyByName(*policyName)
	if err != nil {
		return err
	}
	logger := obs.NopLogger()
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	codec.SetObserver(reg)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("ipstore: serving %d versions on http://%s (metrics on /metrics)\n",
		s.NumVersions(), l.Addr())
	return http.Serve(l, newServeHandler(s, policy, reg, logger))
}

// storeServer answers the serve subcommand's HTTP API. It is factored out
// of cmdServe so tests can drive it through httptest.
type storeServer struct {
	store  *store.Store
	policy graph.Policy
	log    *slog.Logger

	requests  *obs.Counter
	errs      *obs.Counter
	bytesOut  *obs.Counter
	reqStage  obs.Stage
	deltaHits *obs.Counter
}

// newServeHandler mounts the store API: /info, /version/{n},
// /delta?from=N, and /metrics.
func newServeHandler(s *store.Store, policy graph.Policy, reg *obs.Registry, logger *slog.Logger) http.Handler {
	sv := &storeServer{
		store:     s,
		policy:    policy,
		log:       obs.OrNop(logger),
		requests:  reg.Counter("ipdelta_store_requests_total"),
		errs:      reg.Counter("ipdelta_store_request_errors_total"),
		bytesOut:  reg.Counter("ipdelta_store_bytes_written_total"),
		reqStage:  reg.Stage("ipdelta_store_request_nanos"),
		deltaHits: reg.Counter("ipdelta_store_delta_requests_total"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /info", sv.wrap(sv.info))
	mux.HandleFunc("GET /version/{n}", sv.wrap(sv.version))
	mux.HandleFunc("GET /delta", sv.wrap(sv.delta))
	mux.Handle("GET /metrics", reg)
	return mux
}

// wrap runs one endpoint under the request counters, latency histogram,
// and log line.
func (sv *storeServer) wrap(fn func(w http.ResponseWriter, req *http.Request) (status int, n int64, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		sv.requests.Inc()
		sp := sv.reqStage.Start()
		start := time.Now()
		status, n, err := fn(w, req)
		sp.End()
		sv.bytesOut.Add(n)
		if err != nil {
			sv.errs.Inc()
			http.Error(w, err.Error(), status)
			sv.log.Warn("request failed",
				"component", "ipstore", "remote", req.RemoteAddr, "path", req.URL.Path,
				"status", status, "err", err)
			return
		}
		sv.log.Info("request",
			"component", "ipstore", "remote", req.RemoteAddr, "path", req.URL.Path,
			"status", status, "bytes", n, "duration_ms", time.Since(start).Milliseconds())
	}
}

// storeInfo is the /info response document.
type storeInfo struct {
	Versions     int                `json:"versions"`
	StorageBytes int64              `json:"storage_bytes"`
	FullBytes    int64              `json:"full_bytes"`
	Entries      []storeInfoVersion `json:"entries"`
}

type storeInfoVersion struct {
	Index  int    `json:"index"`
	Length int64  `json:"length"`
	CRC32  string `json:"crc32"`
}

func (sv *storeServer) info(w http.ResponseWriter, _ *http.Request) (int, int64, error) {
	storage, err := sv.store.StorageBytes()
	if err != nil {
		return http.StatusInternalServerError, 0, err
	}
	doc := storeInfo{
		Versions:     sv.store.NumVersions(),
		StorageBytes: storage,
		FullBytes:    sv.store.FullBytes(),
	}
	for k := 0; k < sv.store.NumVersions(); k++ {
		crc, length, err := sv.store.CRC(k)
		if err != nil {
			return http.StatusInternalServerError, 0, err
		}
		doc.Entries = append(doc.Entries, storeInfoVersion{
			Index: k, Length: length, CRC32: fmt.Sprintf("%08x", crc),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		return http.StatusInternalServerError, 0, err
	}
	n, _ := w.Write(buf.Bytes())
	return http.StatusOK, int64(n), nil
}

func (sv *storeServer) version(w http.ResponseWriter, req *http.Request) (int, int64, error) {
	idx, err := strconv.Atoi(req.PathValue("n"))
	if err != nil {
		return http.StatusBadRequest, 0, fmt.Errorf("bad version index %q", req.PathValue("n"))
	}
	img, err := sv.store.Version(idx)
	if err != nil {
		return http.StatusNotFound, 0, err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	n, _ := w.Write(img)
	return http.StatusOK, int64(n), nil
}

func (sv *storeServer) delta(w http.ResponseWriter, req *http.Request) (int, int64, error) {
	from, err := strconv.Atoi(req.URL.Query().Get("from"))
	if err != nil {
		return http.StatusBadRequest, 0, fmt.Errorf("bad or missing from index %q", req.URL.Query().Get("from"))
	}
	d, _, err := sv.store.InPlaceDeltaTo(from, sv.policy)
	if err != nil {
		return http.StatusNotFound, 0, err
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatCompact); err != nil {
		return http.StatusInternalServerError, 0, err
	}
	sv.deltaHits.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	n, _ := w.Write(buf.Bytes())
	return http.StatusOK, int64(n), nil
}
