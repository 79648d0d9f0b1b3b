package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// cannedTransport answers every forwarded request in process with one
// reused 200, so a measured forward allocates only in the router and
// the http.Client.
type cannedTransport struct {
	resp *http.Response
	body *bytes.Reader
	data []byte
	hits int
}

func (c *cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	c.hits++
	c.body.Reset(c.data)
	return c.resp, nil
}

// rewindBody is a request body the test rewinds between requests.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status and
// reuses one header map.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestForwardAllocs bounds the allocations of one routed literal query
// on a key-cache hit, forwarded over an in-process transport. Decoding
// the body with json.Unmarshal and parsing the node URL on every
// attempt took 32.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random")
	}
	data := []byte(`{"semantics":"GCWA","verdict":"false","holds":false,"path":"memo"}`)
	ct := &cannedTransport{body: bytes.NewReader(data), data: data}
	ct.resp = &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(ct.body),
	}
	r := NewRouter(RouterConfig{Transport: ct, ProbeInterval: time.Hour, GossipInterval: time.Hour}, []string{"http://w1"})
	defer r.Close()

	body := []byte(`{"semantics":"GCWA","db":"a | b.\nb | c.\n","literal":"-a"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer/literal", nil)
	req.Body = rewindBody{rd}
	w := &discardWriter{h: http.Header{}}
	h := r.Handler()
	h.ServeHTTP(w, req) // fills the key cache
	rd.Reset(body)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK || ct.hits != 202 {
		t.Fatalf("forward answered %d after %d transport calls, want 200 after 202", w.code, ct.hits)
	}
	if got := r.stats.keyHits.Load(); got != 201 {
		t.Fatalf("key cache hits %d, want 201", got)
	}
	const ceiling = 27
	if allocs > ceiling {
		t.Fatalf("routed literal: %.0f allocations per forward, want at most %d", allocs, ceiling)
	}
	t.Logf("routed literal: %.0f allocations per forward", allocs)
}
