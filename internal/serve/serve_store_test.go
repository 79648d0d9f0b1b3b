package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"disjunct/internal/store"
)

// storeWorkload is a repeat-DB workload: a general DB (warm sessions)
// and a definite DB (fast path), each queried for the same literals.
var storeWorkload = []struct{ db, sem, lit string }{
	{"a | b. c :- a. c :- b.\n", "GCWA", "c"},
	{"a | b. c :- a. c :- b.\n", "GCWA", "a"},
	{"p. q :- p. r :- q.\n", "GCWA", "r"},
	{"a | b. c :- a. c :- b.\n", "CIRC", "c"},
}

func runStoreWorkload(t *testing.T, ts *httptest.Server) map[string]bool {
	t.Helper()
	verdicts := map[string]bool{}
	for _, q := range storeWorkload {
		status, body := post(t, ts, "/v1/infer/literal", QueryRequest{
			DB: q.db, Semantics: q.sem, Literal: q.lit,
		})
		if status != 200 {
			t.Fatalf("query %+v: status %d body %s", q, status, body)
		}
		qr := decodeQueryResponse(t, body)
		if qr.Incomplete {
			t.Fatalf("query %+v incomplete: %s", q, qr.CauseCode)
		}
		verdicts[q.db+"|"+q.sem+"|"+q.lit] = qr.Holds
	}
	return verdicts
}

func waitReady(t *testing.T, srv *Server) {
	t.Helper()
	for i := 0; i < 200; i++ {
		rr := httptest.NewRecorder()
		srv.handleReadyz(rr, nil)
		if rr.Code == 200 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestServeStoreRestartRoundTrip drives a workload through a
// store-backed server, drains it, restarts on the same directory, and
// asserts the restarted server (a) gates readiness on the prewarm,
// (b) serves identical verdicts to both the first process and a
// storeless reference, and (c) compiles nothing cold.
func TestServeStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	st1, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Artifacts != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	srv1 := New(Config{Store: st1, DrainTimeout: 5 * time.Second})
	ts1 := httptest.NewServer(srv1.Handler())
	waitReady(t, srv1)
	cold := runStoreWorkload(t, ts1)
	if err := srv1.Drain(context.Background()); err != nil {
		t.Fatalf("drain 1: %v", err)
	}
	ts1.Close()
	if st1.Stats().FlusherRunning {
		t.Fatal("store flusher still running after drain")
	}

	// Storeless reference.
	srvRef := New(Config{Sessions: true, DrainTimeout: 5 * time.Second})
	tsRef := httptest.NewServer(srvRef.Handler())
	ref := runStoreWorkload(t, tsRef)
	srvRef.Drain(context.Background())
	tsRef.Close()

	// Restarted process on the same store dir.
	st2, rec2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Artifacts != 2 {
		t.Fatalf("restart recovered %d artifacts, want 2 (%+v)", rec2.Artifacts, rec2)
	}
	if rec2.Verdicts == 0 {
		t.Fatalf("restart recovered no verdicts (%+v)", rec2)
	}
	srv2 := New(Config{Store: st2, DrainTimeout: 5 * time.Second})
	ts2 := httptest.NewServer(srv2.Handler())
	waitReady(t, srv2)
	warm := runStoreWorkload(t, ts2)

	for k, v := range cold {
		if warm[k] != v {
			t.Fatalf("verdict divergence after restart: %s = %v, cold process said %v", k, warm[k], v)
		}
		if ref[k] != v {
			t.Fatalf("verdict divergence vs storeless reference: %s = %v, reference says %v", k, v, ref[k])
		}
	}

	h := srv2.health()
	if h.Sessions["cold_compiles"] != 0 {
		t.Fatalf("pre-warmed restart ran %d cold compiles, want 0 (sessions %v)", h.Sessions["cold_compiles"], h.Sessions)
	}
	if h.Sessions["compiled_hits"] == 0 {
		t.Fatalf("pre-warmed restart never hit the compile cache (sessions %v)", h.Sessions)
	}
	if h.Sessions["memo_hits"] == 0 {
		t.Fatalf("pre-warmed restart never hit the seeded verdict memo (sessions %v)", h.Sessions)
	}
	if h.Store == nil || h.Store["prewarmed"] != 1 || h.Store["prewarmed_arts"] != 2 {
		t.Fatalf("store health section = %v", h.Store)
	}
	if h.Store["torn_tail"] != 0 || h.Store["write_errors"] != 0 {
		t.Fatalf("clean restart reported store damage: %v", h.Store)
	}

	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
	ts2.Close()
	if st2.Stats().FlusherRunning {
		t.Fatal("store flusher still running after second drain")
	}
}

// TestServeStoreImpliesSessions: configuring a store without Sessions
// still enables the session layer (the store backs its caches).
func TestServeStoreImpliesSessions(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	waitReady(t, srv)
	if srv.sessions == nil {
		t.Fatal("Store did not force the session layer on")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeHealthzStoreSection: the store section appears on a
// store-backed server with the full key set, and is absent otherwise.
func TestServeHealthzStoreSection(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	waitReady(t, srv)
	ts := httptest.NewServer(srv.Handler())
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"artifacts", "verdicts", "queued_writes",
		"flushed_writes", "flushes", "compactions", "write_errors", "size_bytes",
		"torn_tail", "dropped_bytes", "flusher_running", "prewarmed", "prewarmed_arts"} {
		if _, ok := h.Store[key]; !ok {
			t.Fatalf("store health section missing %q: %v", key, h.Store)
		}
	}
	srv.Drain(context.Background())
	ts.Close()

	srv2 := New(Config{Sessions: true})
	if h2 := srv2.health(); h2.Store != nil {
		t.Fatalf("storeless server reports a store section: %v", h2.Store)
	}
	srv2.Drain(context.Background())
}

// TestServeStorePlannerAddsNoWrites: the planner's estimates stay in
// the process, so a store-backed server queues the same records with
// the planner on as with it off — one per artifact and one per solved
// verdict — however often the workload repeats.
func TestServeStorePlannerAddsNoWrites(t *testing.T) {
	queued := map[bool]int64{}
	for _, planner := range []bool{false, true} {
		st, _, err := store.Open(store.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Store: st, Planner: planner})
		waitReady(t, srv)
		ts := httptest.NewServer(srv.Handler())
		for i := 0; i < 3; i++ {
			runStoreWorkload(t, ts)
		}
		queued[planner] = srv.health().Store["queued_writes"]
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if queued[false] == 0 || queued[true] != queued[false] {
		t.Fatalf("store queued %d writes with the planner on, %d with it off", queued[true], queued[false])
	}
}

// TestLoadRecordReplay: a recorded run replays cleanly against itself,
// a replay with a different workload shape is an untyped failure, and
// a tampered verdict file surfaces as divergence.
func TestLoadRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("load run")
	}
	srv := New(Config{Sessions: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	path := filepath.Join(t.TempDir(), "verdicts.json")
	base := LoadConfig{
		BaseURL: ts.URL, Rate: 400, Requests: 40, Workers: 8,
		Seed: 7, MaxAtoms: 4, HotDBs: 3,
		Limits: LimitsJSON{DeadlineMS: 10000},
	}

	recCfg := base
	recCfg.RecordPath = path
	rec := RunLoad(recCfg)
	if !rec.Clean() || rec.Completed == 0 {
		t.Fatalf("record run not clean: %s\n%v", rec.String(), rec.UntypedNotes)
	}

	repCfg := base
	repCfg.ReplayPath = path
	rep := RunLoad(repCfg)
	if !rep.Clean() {
		t.Fatalf("replay run not clean: %s\n%v %v", rep.String(), rep.UntypedNotes, rep.DivergeNotes)
	}
	if rep.Replayed == 0 {
		t.Fatal("replay compared zero verdicts")
	}

	// Shape mismatch: a different seed must refuse the file, typed as
	// untyped (the harness hard-fails rather than silently comparing
	// different workloads).
	badShape := repCfg
	badShape.Seed = 8
	if r := RunLoad(badShape); r.Untyped == 0 || r.Replayed != 0 {
		t.Fatalf("shape-mismatched replay accepted: %s", r.String())
	}

	// Tampering: flip every recorded verdict — every comparison must
	// diverge.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lg verdictLog
	if err := json.Unmarshal(data, &lg); err != nil {
		t.Fatal(err)
	}
	for i := range lg.Verdicts {
		lg.Verdicts[i].Holds = !lg.Verdicts[i].Holds
	}
	flipped, _ := json.Marshal(lg)
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	r := RunLoad(repCfg)
	if r.Divergent == 0 || r.Divergent != r.Replayed {
		t.Fatalf("tampered replay: divergent=%d replayed=%d", r.Divergent, r.Replayed)
	}
}
