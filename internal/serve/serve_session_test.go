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
// through the HTTP layer — fragment fast path, warm session, warm
// memo, and the fresh fallback — and checks each verdict against the
// direct library call plus the Path/counter contract of the route.
func TestServeSessionVerdictsMatchLibrary(t *testing.T) {
	srv, ts := newSessionServer(t, Config{})

	cases := []struct {
		name         string
		sem, db, lit string
		wantPath     string
	}{
		// Definite database: fragment fast path, zero NP calls.
		{"fast-definite", "GCWA", "a. b :- a. c :- b.", "c", "fast"},
		// Stratified normal database under the stable semantics.
		{"fast-strat", "DSM", "a :- not b. c :- a.", "a", "fast"},
		// General disjunctive database: warm incremental session.
		{"warm", "GCWA", "a | b. b | c.", "-a", "session"},
		{"warm-circ", "CIRC", "a | b. a | c.", "-b", "session"},
		// PDSM on a disjunctive database: no fast path, fresh path.
		{"fresh-pdsm", "PDSM", "a | b.", "-a", ""},
		// PDSM on a stratified normal database: the total well-founded
		// model is its unique partial stable model.
		{"fast-pdsm", "PDSM", "a :- not b. c :- a.", "c", "fast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := QueryRequest{Semantics: tc.sem, DB: tc.db, Literal: tc.lit}
			want := directVerdict(t, tc.sem, tc.db, tc.lit)
			for round := 0; round < 2; round++ {
				status, body := post(t, ts, "/v1/infer/literal", req)
				if status != http.StatusOK {
					t.Fatalf("round %d: status %d body %s", round, status, body)
				}
				qr := decodeQueryResponse(t, body)
				if qr.Incomplete || qr.Holds != want {
					t.Fatalf("round %d: served %s/%v, direct library call %v", round, qr.Verdict, qr.Holds, want)
				}
				if qr.Path != tc.wantPath {
					t.Fatalf("round %d: path %q, want %q", round, qr.Path, tc.wantPath)
				}
				if qr.Path == "fast" && qr.Counters.NPCalls != 0 {
					t.Fatalf("fast path consumed %d NP calls", qr.Counters.NPCalls)
				}
				// A repeat of a session-handled query answers from the
				// memo: zero oracle work.
				if round == 1 && qr.Path != "" && qr.Counters.NPCalls != 0 {
					t.Fatalf("repeat consumed %d NP calls, want 0 (memo)", qr.Counters.NPCalls)
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

// TestServeCoalescesIdenticalConcurrentRequests orders a leader and a
// follower deterministically through the flight hook: the leader parks
// after joining until the follower has joined too, then solves once;
// the follower must reuse the leader's complete response.
func TestServeCoalescesIdenticalConcurrentRequests(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2})
	leaderIn := make(chan struct{})
	followerIn := make(chan struct{})
	srv.flightHook = func(leader bool) {
		if leader {
			close(leaderIn)
			<-followerIn
		} else {
			close(followerIn)
		}
	}

	req := QueryRequest{Semantics: "CIRC", DB: "a | b. b | c. c | a.", Literal: "-a"}
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, body := post(t, ts, "/v1/infer/literal", req)
			results <- result{status, body}
		}()
	}

	want := directVerdict(t, req.Semantics, req.DB, req.Literal)
	paths := map[string]int{}
	for i := 0; i < 2; i++ {
		select {
		case res := <-results:
			if res.status != http.StatusOK {
				t.Fatalf("status %d body %s", res.status, res.body)
			}
			qr := decodeQueryResponse(t, res.body)
			if qr.Incomplete || qr.Holds != want {
				t.Fatalf("verdict %s/%v, want complete %v", qr.Verdict, qr.Holds, want)
			}
			paths[qr.Path]++
		case <-time.After(10 * time.Second):
			t.Fatal("coalesced pair never completed")
		}
	}
	if paths["coalesced"] != 1 {
		t.Fatalf("paths %v, want exactly one coalesced follower", paths)
	}
	if got := srv.stats.coalesced.Load(); got != 1 {
		t.Fatalf("coalesced stat = %d, want 1", got)
	}
}

// TestServeCoalesceNeverSharesIncomplete: a leader whose verdict is
// incomplete (here: a 1-NP-call ceiling trips its warm solve) must not
// hand that verdict to the follower — the follower re-executes and
// reports its own typed outcome.
func TestServeCoalesceNeverSharesIncomplete(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 2, Ceilings: budget.Limits{NPCalls: 1}})
	leaderIn := make(chan struct{})
	followerIn := make(chan struct{})
	srv.flightHook = func(leader bool) {
		if leader {
			close(leaderIn)
			<-followerIn
		} else {
			close(followerIn)
		}
	}

	req := QueryRequest{Semantics: "GCWA", DB: "a | b. b | c. c | a.", Literal: "-a"}
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, body := post(t, ts, "/v1/infer/literal", req)
			results <- result{status, body}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case res := <-results:
			if res.status != http.StatusOK {
				t.Fatalf("status %d body %s", res.status, res.body)
			}
			qr := decodeQueryResponse(t, res.body)
			if !qr.Incomplete {
				t.Fatalf("complete verdict under a 1-NP-call ceiling: %s", res.body)
			}
			if qr.Path == "coalesced" {
				t.Fatalf("incomplete verdict was shared: %s", res.body)
			}
			if !KnownCauseCodes[qr.CauseCode] {
				t.Fatalf("cause %q outside the taxonomy", qr.CauseCode)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("pair never completed")
		}
	}
	if got := srv.stats.coalesced.Load(); got != 0 {
		t.Fatalf("coalesced stat = %d, want 0", got)
	}
}

// TestServeSessionHealthz: the health document carries the session
// section with the cache and route counters the smoke harness gates
// on.
func TestServeSessionHealthz(t *testing.T) {
	_, ts := newSessionServer(t, Config{})
	req := QueryRequest{Semantics: "GCWA", DB: "a | b.", Literal: "-a"}
	for i := 0; i < 2; i++ {
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
		"fast_queries", "warm_queries", "memo_hits", "checkouts", "coalesced_is_in_stats",
	} {
		if key == "coalesced_is_in_stats" {
			if _, ok := h.Stats["coalesced"]; !ok {
				t.Fatal("healthz stats missing coalesced counter")
			}
			continue
		}
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
// typed and every completed verdict — fast, warm, coalesced, or fresh
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
