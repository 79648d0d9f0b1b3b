package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/plan"
	"disjunct/internal/session"
)

// batch sends one batch and decodes a 200.
func batch(t *testing.T, ts *httptest.Server, req BatchRequest) BatchResponse {
	t.Helper()
	status, body := postBatch(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}
	return decodeBatchResponse(t, body)
}

// literal posts one literal query and decodes a 200.
func literal(t *testing.T, ts *httptest.Server, req QueryRequest) QueryResponse {
	t.Helper()
	status, body := post(t, ts, "/v1/infer/literal", req)
	if status != http.StatusOK {
		t.Fatalf("%s %q ⊨ %s: status %d body %s", req.Semantics, req.DB, req.Literal, status, body)
	}
	return decodeQueryResponse(t, body)
}

// TestMemoAnswersEveryRoute: a verdict completed on each route — fast,
// session, brute and fresh, and inside a batch — comes back from the
// memo on repeat with the same holds, zero counters, no retries and the
// repeat's own clamped limits.
func TestMemoAnswersEveryRoute(t *testing.T) {
	srv, ts := newPlannerServer(t, Config{Ceilings: budget.Limits{Conflicts: 1 << 20}})
	const dsmDB = "a | b. b | c."
	cases := []struct {
		route, sem, db, lit string
	}{
		{"fast", "GCWA", "a. b :- a.", "b"},
		{"session", "GCWA", "a | b. b | c.", "-a"},
		{"", "CWA", "a | b.", "-a"},
		{"brute", "DSM", dsmDB, "-b"},
	}
	for _, tc := range cases {
		if tc.route == "brute" {
			raw := session.Compile(dsmDB, mustParseDB(t, dsmDB)).Raw
			srv.planner.Observe(raw, "DSM", plan.Cost{NPCalls: 10_000})
		}
		// The first sighting of a text leaves it uncached; the second
		// caches it and solves on the route, which writes the memo.
		literal(t, ts, QueryRequest{Semantics: tc.sem, DB: tc.db, Literal: "a"})
		req := QueryRequest{Semantics: tc.sem, DB: tc.db, Literal: tc.lit}
		first := literal(t, ts, req)
		if first.Path != tc.route || first.Incomplete {
			t.Fatalf("%s: path %q incomplete=%v, want route %q", tc.sem, first.Path, first.Incomplete, tc.route)
		}
		req.Limits = LimitsJSON{Conflicts: 7, DeadlineMS: 9000}
		again := literal(t, ts, req)
		if again.Path != "memo" || again.Holds != first.Holds || again.Incomplete {
			t.Fatalf("%s repeat: path %q holds %v, want memo/%v", tc.sem, again.Path, again.Holds, first.Holds)
		}
		if (again.Counters != CountersJSON{}) || again.Retries != 0 {
			t.Fatalf("%s memo hit: counters %+v retries %d, want zero", tc.sem, again.Counters, again.Retries)
		}
		if want := (LimitsJSON{Conflicts: 7, DeadlineMS: 9000}); again.Limits != want {
			t.Fatalf("%s memo hit: limits %+v, want the request's own %+v", tc.sem, again.Limits, want)
		}
		if want := directVerdict(t, tc.sem, tc.db, tc.lit); again.Holds != want {
			t.Fatalf("%s memo verdict %v, direct library call %v", tc.sem, again.Holds, want)
		}
	}

	// Batch: every complete item is remembered; a repeat batch and a
	// single request answer from the memo.
	breq := BatchRequest{Semantics: "PDSM", DB: "a | b. c :- a.", Queries: []BatchQuery{{Literal: "-a"}, {Literal: "c"}, {Kind: "model"}}}
	batch(t, ts, BatchRequest{Semantics: "PDSM", DB: breq.DB, Queries: []BatchQuery{{Literal: "b"}}})
	first := batch(t, ts, breq)
	again := batch(t, ts, breq)
	if again.Paths["memo"] != len(breq.Queries) {
		t.Fatalf("repeat batch paths %v, want %d memo", again.Paths, len(breq.Queries))
	}
	for i, item := range again.Results {
		if item.Response == nil || first.Results[i].Response == nil || item.Response.Holds != first.Results[i].Response.Holds {
			t.Fatalf("batch item %d: repeat %+v, first %+v", i, item, first.Results[i])
		}
	}
	if qr := literal(t, ts, QueryRequest{Semantics: "PDSM", DB: breq.DB, Literal: "-a"}); qr.Path != "memo" || qr.Holds != first.Results[0].Response.Holds {
		t.Fatalf("single request after a batch: path %q holds %v", qr.Path, qr.Holds)
	}
}

func mustParseDB(t *testing.T, text string) *db.DB {
	t.Helper()
	d, err := db.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMemoSkipsIncompleteAndSemanticErrors: a budget-tripped verdict is
// not remembered, so a later, looser request solves and completes; a
// 422 is not remembered either.
func TestMemoSkipsIncompleteAndSemanticErrors(t *testing.T) {
	srv, ts := newSessionServer(t, Config{})
	const text = "a | b. b | c. c | a."
	literal(t, ts, QueryRequest{Semantics: "GCWA", DB: text, Literal: "a"})
	literal(t, ts, QueryRequest{Semantics: "GCWA", DB: text, Literal: "b"}) // caches the artifact

	tripped := literal(t, ts, QueryRequest{Semantics: "GCWA", DB: text, Literal: "-a", Limits: LimitsJSON{NPCalls: 1}})
	if !tripped.Incomplete {
		t.Fatalf("complete under a 1-NP-call budget: %+v", tripped)
	}
	loose := literal(t, ts, QueryRequest{Semantics: "GCWA", DB: text, Literal: "-a"})
	if loose.Incomplete || loose.Path == "memo" || loose.Counters.NPCalls == 0 {
		t.Fatalf("looser repeat after a trip: %+v, want a completed solve", loose)
	}
	if want := directVerdict(t, "GCWA", text, "-a"); loose.Holds != want {
		t.Fatalf("looser repeat verdict %v, direct %v", loose.Holds, want)
	}

	const negDB = "a :- not b."
	for i := 0; i < 3; i++ {
		status, body := post(t, ts, "/v1/model", QueryRequest{Semantics: "DDR", DB: negDB})
		if er := decodeErrorResponse(t, body); status != http.StatusUnprocessableEntity || er.Error != ReasonUnsupported {
			t.Fatalf("DDR with negation, round %d: status=%d error=%q", i, status, er.Error)
		}
	}
	comp, ok := srv.sessions.Lookup(negDB)
	if !ok {
		t.Fatal("repeated DDR text not cached")
	}
	if _, hit := srv.sessions.Recall(comp, session.Request{Sem: "DDR", Kind: session.KindModel}); hit {
		t.Fatal("a 422 outcome was remembered")
	}
}

// TestMemoHitNeedsNoSlot: while every execution slot and queue place
// is held, a memo hit still answers.
func TestMemoHitNeedsNoSlot(t *testing.T) {
	srv, ts := newSessionServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	var hold atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // runs before the listener's Close
	srv.testHook = func() {
		if hold.Load() {
			<-release
		}
	}
	const text = "a | b. b | c."
	req := QueryRequest{Semantics: "GCWA", DB: text, Literal: "-a"}
	literal(t, ts, QueryRequest{Semantics: "GCWA", DB: text, Literal: "b"})
	want := literal(t, ts, req).Holds

	hold.Store(true)
	var wg sync.WaitGroup
	for _, lit := range []string{"-b", "-c"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{Semantics: "GCWA", DB: text, Literal: lit})
			if resp, err := ts.Client().Post(ts.URL+"/v1/infer/literal", "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, func() bool {
		_, waiting, executing := srv.adm.depth()
		return executing == 1 && waiting == 1
	})
	qr := literal(t, ts, req)
	if qr.Path != "memo" || qr.Holds != want {
		t.Fatalf("with every slot held: path %q holds %v, want memo/%v", qr.Path, qr.Holds, want)
	}
	free()
	wg.Wait()
}

// TestMemoDrainShedsFirst: a draining server sheds even a query the
// memo could answer.
func TestMemoDrainShedsFirst(t *testing.T) {
	srv, ts := newSessionServer(t, Config{})
	const text = "a | b. b | c."
	req := QueryRequest{Semantics: "GCWA", DB: text, Literal: "-a"}
	literal(t, ts, QueryRequest{Semantics: "GCWA", DB: text, Literal: "b"})
	literal(t, ts, req)
	if qr := literal(t, ts, req); qr.Path != "memo" {
		t.Fatalf("before drain: path %q, want memo", qr.Path)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/infer/literal", req)
	if er := decodeErrorResponse(t, body); status != http.StatusServiceUnavailable || er.Error != ShedDraining {
		t.Fatalf("draining: status %d error %q, want 503 %s", status, er.Error, ShedDraining)
	}
}

// TestMemoSeparatesTextsWithOneFingerprint: `a :- not b.` and `a | b.`
// share a CNF, so their texts share a RawKey, yet under DSM ¬b holds
// on the first and not on the second. Each text keeps its own memo.
func TestMemoSeparatesTextsWithOneFingerprint(t *testing.T) {
	_, ts := newSessionServer(t, Config{})
	texts := []string{"a :- not b. c | d.", "a | b. c | d."}
	if x, y := session.Compile(texts[0], mustParseDB(t, texts[0])), session.Compile(texts[1], mustParseDB(t, texts[1])); x.Raw != y.Raw {
		t.Fatal("the two texts no longer share a fingerprint; the test needs a new pair")
	}
	for round := 0; round < 3; round++ {
		for _, text := range texts {
			qr := literal(t, ts, QueryRequest{Semantics: "DSM", DB: text, Literal: "-b"})
			if want := directVerdict(t, "DSM", text, "-b"); qr.Holds != want || qr.Incomplete {
				t.Fatalf("round %d, %q (path %q): served %v, direct %v", round, text, qr.Path, qr.Holds, want)
			}
		}
	}
}
