package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"disjunct/internal/budget"
)

// newSessionServer builds a sessions-enabled server and its test
// listener.
func newSessionServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Sessions = true
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestServeSessionVerdictsMatchLibrary drives every session route
// through the HTTP layer — fragment fast path, warm session, verdict
// memo, and the fresh fallback — and checks each verdict against the
// direct library call plus the Path/counter contract of the route.
// Each case asks two different queries on one (database, semantics),
// so the second runs its route again on the now-cached artifact, then
// repeats the second, which the memo answers.
func TestServeSessionVerdictsMatchLibrary(t *testing.T) {
	srv, ts := newSessionServer(t, Config{})

	cases := []struct {
		name      string
		sem, db   string
		lit, lit2 string
		wantPath  string
	}{
		// Definite database: fragment fast path, zero NP calls.
		{"fast-definite", "GCWA", "a. b :- a. c :- b.", "c", "b", "fast"},
		// Stratified normal database under the stable semantics.
		{"fast-strat", "DSM", "a :- not b. c :- a.", "a", "c", "fast"},
		// General disjunctive database: warm incremental session.
		{"warm", "GCWA", "a | b. b | c.", "-a", "-b", "session"},
		{"warm-circ", "CIRC", "a | b. a | c.", "-b", "-c", "session"},
		// PDSM on a disjunctive database: no fast path, fresh path.
		{"fresh-pdsm", "PDSM", "a | b.", "-a", "-b", ""},
		// PDSM on a stratified normal database: the total well-founded
		// model is its unique partial stable model.
		{"fast-pdsm", "PDSM", "a :- not b. c :- a.", "c", "a", "fast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round, lit := range []string{tc.lit, tc.lit2, tc.lit2} {
				want := directVerdict(t, tc.sem, tc.db, lit)
				status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: tc.sem, DB: tc.db, Literal: lit})
				if status != http.StatusOK {
					t.Fatalf("round %d: status %d body %s", round, status, body)
				}
				qr := decodeQueryResponse(t, body)
				if qr.Incomplete || qr.Holds != want {
					t.Fatalf("round %d: served %s/%v, direct library call %v", round, qr.Verdict, qr.Holds, want)
				}
				wantPath := tc.wantPath
				if round == 2 {
					wantPath = "memo"
				}
				if qr.Path != wantPath {
					t.Fatalf("round %d: path %q, want %q", round, qr.Path, wantPath)
				}
				if qr.Path == "fast" && qr.Counters.NPCalls != 0 {
					t.Fatalf("fast path consumed %d NP calls", qr.Counters.NPCalls)
				}
				// A repeat answers from the memo: zero oracle work.
				if round == 2 && (qr.Counters != CountersJSON{}) {
					t.Fatalf("repeat consumed %+v, want zero counters (memo)", qr.Counters)
				}
			}
		})
	}

	st := srv.sessions.Stats()
	if st.FastQueries == 0 || st.WarmQueries == 0 || st.MemoHits == 0 {
		t.Fatalf("route coverage missing: %+v", st)
	}
	// Round two of every case hit the compiled-artifact cache.
	if st.CompiledHits == 0 {
		t.Fatalf("no compiled-artifact hits: %+v", st)
	}
	if st.ActiveCheckouts != 0 {
		t.Fatalf("session checkout leak: %d outstanding", st.ActiveCheckouts)
	}
}

// overlap runs reqs so that all of them have missed the verdict memo
// before any executes: holdSlots pins the server's two execution
// slots, the requests queue behind them, and only then are the slots
// released. It returns the responses in request order.
func overlap(t *testing.T, srv *Server, ts *httptest.Server, reqs ...QueryRequest) []QueryResponse {
	t.Helper()
	release := holdSlots(t, srv, 2, func() bool { return srv.InFlight() == 2 })
	type result struct {
		i      int
		status int
		body   []byte
	}
	results := make(chan result, len(reqs))
	for i, req := range reqs {
		go func() {
			status, body := post(t, ts, "/v1/infer/literal", req)
			results <- result{i, status, body}
		}()
	}
	waitFor(t, func() bool { _, w, _ := srv.adm.depth(); return w == int64(len(reqs)) })
	release()
	out := make([]QueryResponse, len(reqs))
	for range reqs {
		select {
		case res := <-results:
			if res.status != http.StatusOK {
				t.Fatalf("request %d: status %d body %s", res.i, res.status, res.body)
			}
			out[res.i] = decodeQueryResponse(t, res.body)
		case <-time.After(10 * time.Second):
			t.Fatal("overlapping requests never completed")
		}
	}
	if st := srv.sessions.Stats(); st.ActiveCheckouts != 0 {
		t.Fatalf("session checkout leak: %d outstanding", st.ActiveCheckouts)
	}
	return out
}

// TestServeOverlappingIdenticalRequests: identical requests that are
// in the server at once each run their own execution and answer with
// the direct library verdict; the verdict then lands in the memo for
// the next repeat.
func TestServeOverlappingIdenticalRequests(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2})

	req := QueryRequest{Semantics: "CIRC", DB: "a | b. b | c. c | a.", Literal: "-a"}
	want := directVerdict(t, req.Semantics, req.DB, req.Literal)
	for i, qr := range overlap(t, srv, ts, req, req) {
		if qr.Incomplete || qr.Holds != want {
			t.Fatalf("request %d: verdict %s/%v, want complete %v", i, qr.Verdict, qr.Holds, want)
		}
		if qr.Path == "memo" {
			t.Fatalf("request %d answered from the memo although it missed it before admission", i)
		}
	}
	status, body := post(t, ts, "/v1/infer/literal", req)
	if qr := decodeQueryResponse(t, body); status != http.StatusOK || qr.Path != "memo" || qr.Holds != want {
		t.Fatalf("repeat: status %d path %q verdict %v, want a memo hit with %v", status, qr.Path, qr.Holds, want)
	}
}

// TestServeOverlappingRequestsEchoOwnLimits: limits are not part of
// the memo key, so overlapping requests for one query may ask for
// different limits; each answer echoes its own clamped limits.
func TestServeOverlappingRequestsEchoOwnLimits(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2, Ceilings: budget.Limits{Conflicts: 100000}})

	base := QueryRequest{Semantics: "CIRC", DB: "a | b. b | c. c | a.", Literal: "-a"}
	first, second := base, base
	first.Limits = LimitsJSON{NPCalls: 1000}
	second.Limits = LimitsJSON{Conflicts: 500000, DeadlineMS: 60000}
	clamped := []LimitsJSON{
		{Conflicts: 100000, NPCalls: 1000},
		{Conflicts: 100000, DeadlineMS: 60000},
	}

	want := directVerdict(t, base.Semantics, base.DB, base.Literal)
	for i, qr := range overlap(t, srv, ts, first, second) {
		if qr.Incomplete || qr.Holds != want {
			t.Fatalf("request %d: verdict %s/%v, want complete %v", i, qr.Verdict, qr.Holds, want)
		}
		if qr.Limits != clamped[i] {
			t.Fatalf("request %d: limits %+v, want its own clamped %+v", i, qr.Limits, clamped[i])
		}
	}
	status, body := post(t, ts, "/v1/infer/literal", second)
	if qr := decodeQueryResponse(t, body); status != http.StatusOK || qr.Path != "memo" || qr.Limits != clamped[1] {
		t.Fatalf("repeat: status %d path %q limits %+v, want a memo hit echoing %+v", status, qr.Path, qr.Limits, clamped[1])
	}
}

// TestServeOverlappingIdenticalRequestsIncomplete: under a 1-NP-call
// ceiling every one of the overlapping identical requests trips its own
// budget and reports its own typed cause.
func TestServeOverlappingIdenticalRequestsIncomplete(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2, Ceilings: budget.Limits{NPCalls: 1}})

	req := QueryRequest{Semantics: "GCWA", DB: "a | b. b | c. c | a.", Literal: "-a"}
	for i, qr := range overlap(t, srv, ts, req, req) {
		if !qr.Incomplete {
			t.Fatalf("request %d: complete verdict under a 1-NP-call ceiling: %+v", i, qr)
		}
		if !KnownCauseCodes[qr.CauseCode] {
			t.Fatalf("request %d: cause %q outside the taxonomy", i, qr.CauseCode)
		}
	}
}

// TestServeSessionHealthz: the health document carries the session
// section with the cache and route counters the smoke harness gates
// on.
func TestServeSessionHealthz(t *testing.T) {
	_, ts := newSessionServer(t, Config{})
	// A different second query caches the artifact and solves warm;
	// its repeat hits the compiled cache and the memo.
	for i, lit := range []string{"-a", "-b", "-b"} {
		req := QueryRequest{Semantics: "GCWA", DB: "a | b.", Literal: lit}
		if status, body := post(t, ts, "/v1/infer/literal", req); status != http.StatusOK {
			t.Fatalf("query %d: status %d body %s", i, status, body)
		}
	}
	h, err := FetchHealth(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sessions == nil {
		t.Fatal("healthz missing sessions section on a sessions-enabled server")
	}
	for _, key := range []string{
		"compiled_hits", "compiled_misses", "compiled_bytes", "compiled_entries",
		"fast_queries", "warm_queries", "memo_hits", "checkouts",
	} {
		if _, ok := h.Sessions[key]; !ok {
			t.Fatalf("healthz sessions missing %q: %v", key, h.Sessions)
		}
	}
	if h.Sessions["compiled_hits"] == 0 || h.Sessions["warm_queries"] == 0 || h.Sessions["memo_hits"] == 0 {
		t.Fatalf("session counters not advancing: %v", h.Sessions)
	}
	// A sessions-off server must not report the section.
	plain := New(Config{})
	if h := plain.health(); h.Sessions != nil {
		t.Fatal("sessions-off server reports a sessions section")
	}
}

// TestServeSessionDrain: a drain on a sessions-enabled server finishes
// in-flight warm queries with complete verdicts and leaves no session
// checked out.
func TestServeSessionDrain(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2, DrainTimeout: 10 * time.Second})
	hold := make(chan struct{})
	srv.testHook = func() { <-hold }

	req := QueryRequest{Semantics: "GCWA", DB: "a | b. b | c.", Literal: "-a"}
	done := make(chan QueryResponse, 1)
	go func() {
		status, body := post(t, ts, "/v1/infer/literal", req)
		if status != http.StatusOK {
			t.Errorf("in-flight request: status %d body %s", status, body)
		}
		done <- decodeQueryResponse(t, body)
	}()
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	waitFor(t, func() bool { return srv.Draining() })
	close(hold)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	qr := <-done
	if qr.Incomplete {
		t.Fatalf("in-flight warm query interrupted by clean drain: %+v", qr)
	}
	if want := directVerdict(t, req.Semantics, req.DB, req.Literal); qr.Holds != want {
		t.Fatalf("drained verdict %v, direct library call %v", qr.Holds, want)
	}
	if st := srv.sessions.Stats(); st.ActiveCheckouts != 0 {
		t.Fatalf("session checkout leak after drain: %+v", st)
	}
}

// TestServeSessionChaosTaxonomy reruns the chaos load with the session
// layer on: under seeded fault injection, every outcome must stay
// typed and every completed verdict — fast, warm, memo, or fresh
// — must match the direct library call.
func TestServeSessionChaosTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load run")
	}
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2, QueueDepth: 2, FaultRate: 0.05, FaultSeed: 43, RetryMax: 2})

	rep := RunLoad(LoadConfig{
		BaseURL:  ts.URL,
		Rate:     400,
		Requests: 120,
		Workers:  8,
		Seed:     11,
		MaxAtoms: 5,
		Verify:   true,
		Limits:   LimitsJSON{DeadlineMS: 10000},
	})
	if rep.Untyped > 0 {
		t.Fatalf("untyped outcomes under chaos: %d\n%v", rep.Untyped, rep.UntypedNotes)
	}
	if rep.Divergent > 0 {
		t.Fatalf("session-served verdicts diverged from library: %d\n%v", rep.Divergent, rep.DivergeNotes)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
	if st := srv.sessions.Stats(); st.ActiveCheckouts != 0 {
		t.Fatalf("session checkout leak after chaos: %+v", st)
	}
}
