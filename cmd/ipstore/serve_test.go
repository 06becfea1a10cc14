package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipdelta/internal/codec"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// testStore builds a three-version store of successively mutated images
// and returns it with the images.
func testStore(t *testing.T, size int, opts ...store.Option) (*store.Store, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, size)
	rng.Read(base)
	s := store.New(base, opts...)
	versions := [][]byte{base}
	for k := 0; k < 2; k++ {
		next := append([]byte(nil), versions[k]...)
		rng.Read(next[256*(k+1) : 256*(k+1)+512])
		if _, err := s.AppendVersion(next); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
	}
	return s, versions
}

// get fetches url and fails the test unless it answers wantStatus.
func get(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d (%s), want %d", url, resp.StatusCode, strings.TrimSpace(string(body)), wantStatus)
	}
	return body
}

func TestServeHandlerEndpoints(t *testing.T) {
	s, _ := testStore(t, 8<<10)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(newServeHandler(s, reg, nil))
	defer srv.Close()
	get := func(path string, wantStatus int) []byte {
		t.Helper()
		return get(t, srv.URL+path, wantStatus)
	}

	// /info reports the census.
	var info storeInfo
	if err := json.Unmarshal(get("/info", http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if info.Versions != 3 || len(info.Entries) != 3 {
		t.Fatalf("info = %+v", info)
	}

	// /version/{n} returns the exact image.
	img := get("/version/1", http.StatusOK)
	want, err := s.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatal("/version/1 body differs from the stored image")
	}
	get("/version/99", http.StatusNotFound)
	get("/version/x", http.StatusBadRequest)

	// /delta?from=0 serves a decodable in-place delta that reconstructs
	// the newest version from version 0.
	raw := get("/delta?from=0", http.StatusOK)
	d, _, err := codec.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("served delta does not decode: %v", err)
	}
	v0, err := s.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.InPlaceBufLen())
	copy(buf, v0)
	if err := d.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	newest, err := s.Version(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:d.VersionLen], newest) {
		t.Fatal("served delta reconstructs the wrong image")
	}
	get("/delta?from=bad", http.StatusBadRequest)

	// /metrics exposes the request counters the calls above moved.
	metrics := string(get("/metrics", http.StatusOK))
	if !strings.Contains(metrics, "ipdelta_store_requests_total") {
		t.Fatalf("metrics output missing request counter:\n%s", metrics)
	}
	snap := reg.Snapshot()
	// /info, /version/{1,99,x}, /delta?from={0,bad}; /metrics is unwrapped.
	if got := snap.Counter("ipdelta_store_requests_total"); got != 6 {
		t.Errorf("requests_total = %d, want 6", got)
	}
	if got := snap.Counter("ipdelta_store_delta_requests_total"); got != 1 {
		t.Errorf("delta_requests_total = %d, want 1", got)
	}
	if got := snap.Counter("ipdelta_store_request_errors_total"); got != 3 {
		t.Errorf("request_errors_total = %d, want 3", got)
	}
	if got := snap.Counter("ipdelta_store_bytes_written_total"); got == 0 {
		t.Error("bytes_written_total did not move")
	}
}

// TestServeVersionStreamsChunked serves every version of a cached,
// chunked store over /version/{n}: each body is the image, and none of
// them lands in the store's cache, which holds composed deltas only.
func TestServeVersionStreamsChunked(t *testing.T) {
	reg := obs.NewRegistry()
	s, versions := testStore(t, 256<<10, store.WithChunking(nil), store.WithCache(1), store.WithObserver(reg))
	srv := httptest.NewServer(newServeHandler(s, reg, nil))
	defer srv.Close()
	for i, want := range versions {
		if got := get(t, fmt.Sprintf("%s/version/%d", srv.URL, i), http.StatusOK); !bytes.Equal(got, want) {
			t.Fatalf("/version/%d body differs from the stored image", i)
		}
	}
	snap := reg.Snapshot()
	if b := snap.Gauges["ipdelta_store_cache_bytes"]; b != 0 {
		t.Errorf("ipdelta_store_cache_bytes = %d after /version, want 0", b)
	}
	if got, want := snap.Counter("ipdelta_store_bytes_written_total"), int64(3*len(versions[0])); got != want {
		t.Errorf("bytes_written_total = %d, want %d", got, want)
	}
}

func TestServeHandlerUsage(t *testing.T) {
	// The CLI rejects a serve invocation without a store path.
	if err := run([]string{"serve"}); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("serve without -store: %v", err)
	}
	// Unknown subcommands, the removed archive commands among them, get
	// the usage error, and the usage lists none of those.
	noArgs := run(nil)
	if noArgs == nil {
		t.Fatal("run without a subcommand succeeded")
	}
	usageText := noArgs.Error()
	for _, cmd := range []string{"nonsense", "archive", "scrub", "restore"} {
		err := run([]string{cmd})
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") || !strings.Contains(err.Error(), usageText) {
			t.Errorf("run(%q) = %v, want the usage error", cmd, err)
		}
		if strings.Contains(usageText, cmd) {
			t.Errorf("usage lists %q: %s", cmd, usageText)
		}
	}
}
