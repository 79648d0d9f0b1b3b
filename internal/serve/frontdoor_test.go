package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"disjunct/internal/session"
)

// frontDoorRoute is an endpoint with its body cap and a valid body over
// a given database text.
type frontDoorRoute struct {
	path  string
	limit int
	body  func(dbText string) any
}

// frontDoorRoutes are the five endpoints that claim an admission slot.
var frontDoorRoutes = []frontDoorRoute{
	{"/v1/infer/literal", 1 << 20, func(d string) any { return QueryRequest{Semantics: "GCWA", DB: d, Literal: "-a"} }},
	{"/v1/infer/formula", 1 << 20, func(d string) any { return QueryRequest{Semantics: "GCWA", DB: d, Formula: "a | b"} }},
	{"/v1/model", 1 << 20, func(d string) any { return QueryRequest{Semantics: "GCWA", DB: d} }},
	{"/v1/batch", 4 << 20, func(d string) any {
		return BatchRequest{Semantics: "GCWA", DB: d, Queries: []BatchQuery{{Literal: "-a"}, {Kind: "model"}}}
	}},
	{"/v1/models/stream", 1 << 20, func(d string) any { return StreamRequest{DB: d, Kind: "minimal"} }},
}

// frontDoorStats reads the /healthz outcome counters.
func frontDoorStats(t *testing.T, srv *Server) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	return h.Stats
}

// serveBody runs one POST through the handler tree under ctx.
func serveBody(srv *Server, ctx context.Context, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// holdSlots parks n model-existence requests inside the execution
// slot (the test hook blocks them) and queue; the returned function
// releases them and waits for their answers.
func holdSlots(t *testing.T, srv *Server, n int, inQueue func() bool) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	srv.testHook = func() { <-hold }
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			done <- serveBody(srv, context.Background(), "/v1/model", mustJSON(t, QueryRequest{Semantics: "GCWA", DB: "h."})).Code
		}()
	}
	waitFor(t, inQueue)
	return func() {
		close(hold)
		for i := 0; i < n; i++ {
			if code := <-done; code != http.StatusOK {
				t.Errorf("held request answered %d", code)
			}
		}
	}
}

// TestFrontDoorAcrossRoutes: every admitted route answers the same
// intake failures the same way — status, typed reason, Retry-After
// where a retry helps, and exactly one /healthz counter bumped — with
// the session layer off and on.
func TestFrontDoorAcrossRoutes(t *testing.T) {
	type outcome struct {
		status     int
		reason     string
		retryAfter bool
		counter    string
	}
	badRequest := outcome{http.StatusBadRequest, ReasonBadRequest, false, "bad_request"}
	cases := []struct {
		name string
		// run drives the case against a fresh one-slot, one-queue-place
		// server and returns the route's answer.
		run  func(t *testing.T, srv *Server, path string, body func(string) any, limit int) *httptest.ResponseRecorder
		want outcome
	}{
		{
			name: "draining",
			run: func(t *testing.T, srv *Server, path string, body func(string) any, _ int) *httptest.ResponseRecorder {
				if err := srv.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return serveBody(srv, context.Background(), path, mustJSON(t, body("a | b.")))
			},
			want: outcome{http.StatusServiceUnavailable, ShedDraining, false, "shed_draining"},
		},
		{
			name: "queue_full",
			run: func(t *testing.T, srv *Server, path string, body func(string) any, _ int) *httptest.ResponseRecorder {
				release := holdSlots(t, srv, 2, func() bool { q, _, _ := srv.adm.depth(); return q == 2 })
				t.Cleanup(release)
				return serveBody(srv, context.Background(), path, mustJSON(t, body("a | b.")))
			},
			want: outcome{http.StatusTooManyRequests, ShedQueueFull, true, "shed_queue_full"},
		},
		{
			name: "client_gone",
			run: func(t *testing.T, srv *Server, path string, body func(string) any, _ int) *httptest.ResponseRecorder {
				release := holdSlots(t, srv, 1, func() bool { return srv.InFlight() == 1 })
				t.Cleanup(release)
				ctx, cancel := context.WithCancel(context.Background())
				answered := make(chan *httptest.ResponseRecorder, 1)
				go func() { answered <- serveBody(srv, ctx, path, mustJSON(t, body("a | b."))) }()
				waitFor(t, func() bool { _, w, _ := srv.adm.depth(); return w == 1 })
				cancel()
				return <-answered
			},
			want: outcome{statusClientClosedRequest, ShedClientGone, false, "shed_client_gone"},
		},
		{
			name: "malformed_json",
			run: func(t *testing.T, srv *Server, path string, _ func(string) any, _ int) *httptest.ResponseRecorder {
				return serveBody(srv, context.Background(), path, []byte(`{"db": not json`))
			},
			want: badRequest,
		},
		{
			name: "body_over_limit",
			run: func(t *testing.T, srv *Server, path string, body func(string) any, limit int) *httptest.ResponseRecorder {
				return serveBody(srv, context.Background(), path, mustJSON(t, body("a | b."+strings.Repeat(" ", limit))))
			},
			want: badRequest,
		},
		{
			name: "unparseable_db",
			run: func(t *testing.T, srv *Server, path string, body func(string) any, _ int) *httptest.ResponseRecorder {
				return serveBody(srv, context.Background(), path, mustJSON(t, body("a |")))
			},
			want: badRequest,
		},
		{
			name: "empty_vocabulary",
			run: func(t *testing.T, srv *Server, path string, body func(string) any, _ int) *httptest.ResponseRecorder {
				return serveBody(srv, context.Background(), path, mustJSON(t, body("")))
			},
			want: badRequest,
		},
	}
	drive := func(t *testing.T, cfg Config, rt frontDoorRoute, tc int) {
		want := cases[tc].want
		srv := New(cfg)
		before := frontDoorStats(t, srv)
		rec := cases[tc].run(t, srv, rt.path, rt.body, rt.limit)
		after := frontDoorStats(t, srv)

		if rec.Code != want.status {
			t.Fatalf("status %d, want %d; body %s", rec.Code, want.status, rec.Body.Bytes())
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != want.reason {
			t.Fatalf("body %s, want reason %q", rec.Body.Bytes(), want.reason)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != want.retryAfter {
			t.Fatalf("Retry-After present = %v, want %v", got, want.retryAfter)
		}
		for name, v := range after {
			n := before[name]
			if name == want.counter {
				n++
			}
			if v != n {
				t.Fatalf("stat %s = %d, want %d", name, v, n)
			}
		}
	}
	plain := Config{MaxConcurrent: 1, QueueDepth: 1}
	sessions := Config{MaxConcurrent: 1, QueueDepth: 1, Sessions: true}
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"plain", plain}, {"sessions", sessions}} {
		for _, rt := range frontDoorRoutes {
			for tc := range cases {
				t.Run(cfg.name+rt.path+"/"+cases[tc].name, func(t *testing.T) { drive(t, cfg.cfg, rt, tc) })
			}
		}
	}
	// The handoff import reads its body through the same door: a
	// draining server sheds it, and a malformed body is a counted 400.
	// It claims no admission slot and names no database, so only those
	// two cases apply; it needs the session layer.
	handoffImport := frontDoorRoute{"/v1/handoff/import", 64 << 20, func(string) any { return session.Handoff{} }}
	for tc := range cases {
		if name := cases[tc].name; name == "draining" || name == "malformed_json" {
			t.Run("sessions"+handoffImport.path+"/"+name, func(t *testing.T) { drive(t, sessions, handoffImport, tc) })
		}
	}
}

// TestFrontDoorBodyLimits: a batch body past the single-query cap but
// under its own is accepted; the same size is over the cap everywhere
// else.
func TestFrontDoorBodyLimits(t *testing.T) {
	srv := New(Config{})
	for _, rt := range frontDoorRoutes {
		body := mustJSON(t, rt.body("a | b."+strings.Repeat(" ", 1<<20)))
		rec := serveBody(srv, context.Background(), rt.path, body)
		want := http.StatusBadRequest
		if len(body) <= rt.limit {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("%s: %d-byte body answered %d, want %d", rt.path, len(body), rec.Code, want)
		}
	}
}
