package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that keeps only the status and
// reuses one header map.
type discardWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// TestMemoHitAllocs bounds the allocations of a memo-hit literal query
// through Handler(): the repeat is the cheapest answer the service
// gives, so the intake sets its cost. A json.Decoder intake took 18.
func TestMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random")
	}
	srv := New(Config{Sessions: true})
	body := mustJSON(t, QueryRequest{Semantics: "GCWA", DB: "a | b.\nb | c.\n", Literal: "-a"})
	for i := 0; i < 3; i++ {
		serveBody(srv, context.Background(), "/v1/infer/literal", body)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer/literal", nil)
	req.Body = nopBody{rd}
	w := &discardWriter{h: http.Header{}}
	h := srv.Handler()
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.body.Reset()
		h.ServeHTTP(w, req)
	})
	var resp QueryResponse
	if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil || w.code != http.StatusOK || resp.Path != "memo" {
		t.Fatalf("repeat answered %d %q (%v), want a memo hit", w.code, w.body.Bytes(), err)
	}
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("memo-hit literal: %.0f allocations per request, want at most %d", allocs, ceiling)
	}
	t.Logf("memo-hit literal: %.0f allocations per request", allocs)
}
