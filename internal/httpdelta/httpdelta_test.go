package httpdelta

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
)

func newPage(seed int64) []byte {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Text, Size: 32 << 10, ChangeRate: 0, Seed: seed})
	return pair.Ref
}

// edit mutates a small part of the page.
func edit(page []byte, k byte) []byte {
	out := append([]byte(nil), page...)
	copy(out[100:], bytes.Repeat([]byte{'A' + k%26}, 200))
	return out
}

func TestDeltaEncodedFetches(t *testing.T) {
	v1 := newPage(1)
	res := NewResource(v1)
	srv := httptest.NewServer(res)
	defer srv.Close()

	c := NewClient(srv.Client())
	got, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("cold fetch mismatch")
	}
	cold := c.TransferredBytes()
	if cold < int64(len(v1)) {
		t.Fatalf("cold fetch transferred %d < body %d", cold, len(v1))
	}

	// Update and fetch warm: delta-encoded, tiny transfer.
	v2 := edit(v1, 0)
	res.Update(v2)
	got, err = c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("warm fetch mismatch")
	}
	warm := c.TransferredBytes() - cold
	if warm > int64(len(v2))/10 {
		t.Fatalf("warm fetch transferred %d of %d bytes; delta encoding missing", warm, len(v2))
	}

	// Unchanged: 304, zero body bytes.
	before := c.TransferredBytes()
	got, err = c.Get(srv.URL)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("304 fetch: %v", err)
	}
	if c.TransferredBytes() != before {
		t.Fatal("304 fetch transferred body bytes")
	}
}

func TestAlgorithmOption(t *testing.T) {
	v1 := newPage(7)
	res := NewResource(v1, WithAlgorithm(diff.NewGreedy()))
	srv := httptest.NewServer(res)
	defer srv.Close()

	c := NewClient(srv.Client())
	if _, err := c.Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	cold := c.TransferredBytes()
	v2 := edit(v1, 3)
	res.Update(v2)
	got, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("warm fetch mismatch with greedy differencer")
	}
	if warm := c.TransferredBytes() - cold; warm > int64(len(v2))/10 {
		t.Fatalf("greedy diff transferred %d of %d bytes; delta encoding degraded", warm, len(v2))
	}
}

func TestPlainClientGetsFullBody(t *testing.T) {
	v1 := newPage(2)
	res := NewResource(v1)
	srv := httptest.NewServer(res)
	defer srv.Close()

	// A client that does not advertise A-IM gets 200 + full body even with
	// a stale etag.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("If-None-Match", "\"deadbeef-1\"")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
}

func TestEvictedVersionFallsBackToFullBody(t *testing.T) {
	v := newPage(3)
	res := NewResource(v, WithMaxVersions(2))
	srv := httptest.NewServer(res)
	defer srv.Close()

	c := NewClient(srv.Client())
	if _, err := c.Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	// Publish enough versions to evict the client's base.
	for k := byte(1); k <= 4; k++ {
		v = edit(v, k)
		res.Update(v)
	}
	before := c.TransferredBytes()
	got, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("fetch after eviction mismatch")
	}
	if c.TransferredBytes()-before < int64(len(v)) {
		t.Fatal("expected a full-body transfer after base eviction")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(NewResource([]byte("x")))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", bytes.NewReader([]byte("y")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %s", resp.Status)
	}
}

func TestConcurrentClients(t *testing.T) {
	v1 := newPage(4)
	res := NewResource(v1)
	srv := httptest.NewServer(res)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(srv.Client())
			for round := byte(0); round < 4; round++ {
				if _, err := c.Get(srv.URL); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	// Update concurrently with the fetches.
	for k := byte(1); k <= 6; k++ {
		res.Update(edit(v1, k))
	}
	wg.Wait()
	for k := 0; k < 8; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEtagStability(t *testing.T) {
	body := []byte("same content")
	if etagOf(body) != etagOf(append([]byte(nil), body...)) {
		t.Fatal("etag not content-derived")
	}
	res := NewResource(body)
	if res.ETag() != etagOf(body) {
		t.Fatal("resource etag mismatch")
	}
	// Re-publishing identical content keeps the version list deduplicated.
	res.Update(body)
	res.mu.RLock()
	n := len(res.order)
	res.mu.RUnlock()
	if n != 1 {
		t.Fatalf("duplicate publish created %d versions", n)
	}
}
