package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/plan"
	"disjunct/internal/refsem"
	"disjunct/internal/session"
)

// newPlannerServer builds a planner-enabled server (which implies
// sessions) and its test listener.
func newPlannerServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Planner = true
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPlannerVerdictIdentityAndPaths drives one query through every
// procedure the planner routes between — fast path, warm session,
// brute, and fresh — and checks each served verdict against the direct
// library call. The planner must never move a verdict, only the route
// that produces it, and a fresh-routed answer reports exactly the
// counters of one direct fresh call.
func TestPlannerVerdictIdentityAndPaths(t *testing.T) {
	srv, ts := newPlannerServer(t, Config{})

	post1 := func(sem, dbText, lit string) QueryResponse {
		t.Helper()
		status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: sem, DB: dbText, Literal: lit})
		if status != http.StatusOK {
			t.Fatalf("%s on %q: status %d body %s", sem, dbText, status, body)
		}
		qr := decodeQueryResponse(t, body)
		if qr.Incomplete {
			t.Fatalf("%s on %q: unexpected interruption %s", sem, dbText, qr.CauseCode)
		}
		if want := directVerdict(t, sem, dbText, lit); qr.Holds != want {
			t.Fatalf("%s ⊨ %s on %q (path %q): served=%v direct=%v", sem, lit, dbText, qr.Path, qr.Holds, want)
		}
		return qr
	}

	// Fast path: definite fragment, zero NP calls.
	if qr := post1("GCWA", "a. b :- a.", "b"); qr.Path != "fast" || qr.Counters.NPCalls != 0 {
		t.Errorf("definite GCWA: path %q np=%d, want fast/0", qr.Path, qr.Counters.NPCalls)
	}
	// Warm session: minimal-model family on the general fragment.
	if qr := post1("GCWA", "a | b. b | c.", "-a"); qr.Path != "session" {
		t.Errorf("disjunctive GCWA: path %q, want session", qr.Path)
	}
	// Cold tiny Σ₂ᵖ query outside the warm family: the fresh path, one
	// procedure, with the verdict of the reference construction and the
	// counters of one direct fresh call.
	const dsmDB, dsmLit = "a | b. b | c.", "-a"
	entriesBefore := srv.planner.Stats()["estimate_entries"]
	qr := post1("DSM", dsmDB, dsmLit)
	if qr.Path != "" {
		t.Errorf("cold tiny DSM: path %q, want fresh (empty)", qr.Path)
	}
	d, err := db.Parse(dsmDB)
	if err != nil {
		t.Fatal(err)
	}
	lit, err := parseLiteral(dsmLit, d.Voc)
	if err != nil {
		t.Fatal(err)
	}
	if want := refsem.Entails(refsem.DSM(d), logic.LitF(lit)); qr.Holds != want {
		t.Errorf("cold tiny DSM: served %v, refsem %v", qr.Holds, want)
	}
	o := oracle.NewNP()
	sem, _ := core.New("DSM", core.Options{Oracle: o})
	if _, err := sem.InferLiteral(d, lit); err != nil {
		t.Fatal(err)
	}
	if want := CountersFrom(o.Counters()); qr.Counters != want || want.NPCalls == 0 {
		t.Errorf("cold tiny DSM: served counters %+v, direct fresh call %+v (want equal, nonzero NP)", qr.Counters, want)
	}
	// Calibrate the key expensive: the next decision routes brute.
	// The (database, DSM) key is new here, so the fresh query's own
	// observation adds exactly one estimate entry, and observing under
	// that key again adds none.
	if got := srv.planner.Stats()["estimate_entries"]; got != entriesBefore+1 {
		t.Fatalf("estimate entries %d after the fresh query, want %d: the fresh path was not observed", got, entriesBefore+1)
	}
	dsmRaw := session.Compile(dsmDB, d).Raw
	srv.planner.Observe(dsmRaw, "DSM", plan.Cost{NPCalls: 10_000})
	if got := srv.planner.Stats()["estimate_entries"]; got != entriesBefore+1 {
		t.Fatalf("estimate entries %d after observing (dsmRaw, DSM), want %d: the fresh query was observed under another key", got, entriesBefore+1)
	}
	// A different query on the same database and semantics: a repeat
	// of dsmLit would answer from the verdict memo.
	if qr := post1("DSM", dsmDB, "-c"); qr.Path != "brute" || qr.Counters.NPCalls != 0 {
		t.Errorf("expensive-estimate DSM: path %q np=%d, want brute/0", qr.Path, qr.Counters.NPCalls)
	}
	// No brute reference and no warm family: the fresh path, as before
	// the planner existed.
	if qr := post1("CWA", "a | b.", "-a"); qr.Path != "" {
		t.Errorf("CWA: path %q, want fresh (empty)", qr.Path)
	}

	h, err := FetchHealth(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h.Planner == nil {
		t.Fatal("healthz missing planner section on a planner-enabled server")
	}
	for _, key := range []string{
		"decisions", "estimates_served", "estimate_entries", "observations",
		"routed_fast", "routed_warm", "routed_fresh", "routed_brute", "shed_cost",
	} {
		if _, ok := h.Planner[key]; !ok {
			t.Fatalf("healthz planner section missing %q: %v", key, h.Planner)
		}
	}
	ps := h.Planner
	if ps["routed_fast"] == 0 || ps["routed_warm"] == 0 || ps["routed_fresh"] == 0 ||
		ps["routed_brute"] == 0 {
		t.Errorf("route coverage missing in planner stats: %v", ps)
	}
	if len(ps) != 9 {
		t.Errorf("planner section has %d keys, want 9: %v", len(ps), ps)
	}
	if _, ok := h.Stats["shed_cost"]; !ok {
		t.Error("healthz stats missing shed_cost counter")
	}

	// A planner-off server reports no planner section.
	if h := New(Config{}).health(); h.Planner != nil {
		t.Error("planner-off server reports a planner section")
	}
}

// TestPlannerCostShedTyped429 pins the cost-aware admission contract:
// above the occupancy threshold an expensive (Σ₂ᵖ-class, cold) query
// sheds with the typed shed_cost 429 before claiming a queue slot,
// while fast-path and NP-class traffic keeps being admitted; below the
// threshold nothing sheds.
func TestPlannerCostShedTyped429(t *testing.T) {
	srv, ts := newPlannerServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})

	// Simulate one in-flight request (occupancy 1/2 = the default 0.5
	// threshold) without racing a real slow query.
	srv.adm.queued.Add(1)
	defer srv.adm.queued.Add(-1)

	status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "DSM", DB: "a | b. b | c.", Literal: "-a"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("cold Σ₂ᵖ query under overload: status %d body %s, want 429", status, body)
	}
	er := decodeErrorResponse(t, body)
	if er.Error != ShedCost {
		t.Fatalf("shed reason %q, want %q", er.Error, ShedCost)
	}
	if er.RetryAfterMS <= 0 {
		t.Errorf("shed_cost response missing retry_after_ms: %+v", er)
	}

	// Cheap traffic is untouched at the same occupancy.
	if status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "GCWA", DB: "a. b :- a.", Literal: "b"}); status != http.StatusOK {
		t.Fatalf("fast-path query under overload: status %d body %s", status, body)
	}
	if status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "CWA", DB: "a | b.", Literal: "-a"}); status != http.StatusOK {
		t.Fatalf("NP-class query under overload: status %d body %s", status, body)
	}

	// Below the threshold the same expensive query is admitted.
	srv.adm.queued.Add(-1)
	status, body = post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "DSM", DB: "a | b. b | c.", Literal: "-a"})
	srv.adm.queued.Add(1) // restore for the deferred release
	if status != http.StatusOK {
		t.Fatalf("Σ₂ᵖ query below occupancy threshold: status %d body %s", status, body)
	}

	h, err := FetchHealth(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats["shed_cost"] != 1 || h.Planner["shed_cost"] != 1 {
		t.Errorf("shed_cost counters: stats=%d planner=%d, want 1/1", h.Stats["shed_cost"], h.Planner["shed_cost"])
	}
}
