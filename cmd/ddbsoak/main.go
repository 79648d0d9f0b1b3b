// Command ddbsoak is a standalone differential tester: it generates
// random databases forever and cross-checks every production semantics
// against the brute-force reference implementations, printing any
// divergence and exiting nonzero. It is the long-running complement of
// the unit suites' bounded cross-validation (run it for minutes or
// hours; `-iters` bounds the run for CI).
//
// Setting -faultrate, -deadline or -conflictbudget switches on the
// chaos layer: every iteration is additionally replayed under the given
// budget with seeded fault injection, asserting the three-valued
// contract — a budgeted run either completes with the exact unbudgeted
// verdict (and model set, for the parallel enumerator) or surfaces a
// typed interruption; anything else (silent corruption, an untyped
// error, a leaked goroutine) is a divergence.
//
// A random subset of iterations (-servefrac) is additionally replayed
// through an in-process HTTP inference server, cross-checking the full
// wire path (encode, parse, clamp, admit, execute) against the same
// brute-force references; in chaos mode the server injects the same
// fault rate, so served answers must be complete-and-correct or carry
// a typed interruption cause.
//
// A random subset of iterations (-sessionfrac) is additionally replayed
// through a shared warm session manager (compiled-DB cache, fragment
// fast paths, warm incremental engines), cross-checking every handled
// verdict against the brute-force references, asserting repeats cost
// zero NP calls, and failing on any leaked checkout. When -sessionfrac
// and -servefrac are both set, the in-process server also runs with its
// session layer enabled, so the wire path exercises the warm routes.
//
// A random subset of iterations (-planfrac) is additionally replayed
// through an in-process server with the cost-based planner enabled, so
// the planner's routing (fast path, warm session, fresh enumeration,
// brute refsem) carries real traffic: every completed verdict is
// cross-checked against the brute-force references, interruptions must
// carry typed causes, and after the soak the /healthz planner section
// must be populated — decisions, cost observations and served
// estimates — proving the planner actually planned rather than
// pass-through routing everything fresh.
//
// Setting -churnfrac runs a membership-churn sweep after the soak: a
// verified load through an in-process cluster while a seeded churn plan
// (warm joins, graceful drains, abrupt kills) fires mid-load, with every
// completed verdict cross-checked against the direct library and a
// goroutine-settle check after the ring stabilizes.
//
// Usage:
//
//	ddbsoak [-iters N] [-seed S] [-maxatoms 5]
//	        [-deadline D] [-conflictbudget N] [-faultrate F] [-faultseed S]
//	        [-servefrac F] [-sessionfrac F] [-planfrac F]
//	        [-clusternodes N] [-churnfrac F] [-v]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/faults"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
	"disjunct/internal/serve"
	"disjunct/internal/session"
	"disjunct/internal/store"

	_ "disjunct/internal/semantics/all"
)

func main() {
	iters := flag.Int("iters", 0, "iterations to run (0 = until interrupted)")
	seed := flag.Int64("seed", time.Now().UnixNano(), "rng seed")
	maxAtoms := flag.Int("maxatoms", 5, "maximum vocabulary size (brute force is 2^n)")
	deadline := flag.Duration("deadline", 0, "chaos mode: per-query wall-clock budget (0 = off)")
	conflictBudget := flag.Int64("conflictbudget", 0, "chaos mode: per-query SAT-conflict budget (0 = unlimited)")
	faultRate := flag.Float64("faultrate", 0, "chaos mode: injected fault rate (0 = none)")
	faultSeed := flag.Int64("faultseed", 1, "chaos mode: fault injector seed (salted per iteration)")
	serveFrac := flag.Float64("servefrac", 0, "fraction of iterations replayed through an in-process HTTP server (0 = off)")
	batchFrac := flag.Float64("batchfrac", 0, "fraction of iterations additionally replayed through /v1/batch (0 = off; implies -servefrac machinery)")
	sessionFrac := flag.Float64("sessionfrac", 0, "fraction of iterations replayed through a shared warm session manager (0 = off)")
	planFrac := flag.Float64("planfrac", 0, "fraction of iterations replayed through an in-process server with the cost-based planner enabled, cross-checking planner-routed verdicts (fast/warm/fresh/brute) against the brute-force references and asserting the /healthz planner section is populated (0 = off)")
	storeDir := flag.String("storedir", "", "back the session manager with a persistent store at this directory and, after the soak, reopen it in a pre-warmed second manager that must replay every recorded verdict identically with zero cold compiles (enables the session checker if -sessionfrac is 0)")
	clusterNodes := flag.Int("clusternodes", 0, "after the soak, run a verified load through an in-process N-worker cluster with seeded node chaos (kill/partition/slow of a seeded victim mid-load) and a graceful drain handoff; any divergent or untyped outcome fails the run (0 = off)")
	clusterReqs := flag.Int("clusterreqs", 240, "requests per cluster sweep phase (with -clusternodes)")
	churnFrac := flag.Float64("churnfrac", 0, "after the soak, run a verified load through an in-process cluster while a seeded membership-churn plan fires mid-load (churnfrac×requests warm joins / graceful drains / abrupt kills); any divergent or untyped outcome or goroutine leak fails the run (0 = off; 3 nodes unless -clusternodes is set)")
	verbose := flag.Bool("v", false, "log progress every 500 iterations")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("ddbsoak: seed=%d maxatoms=%d\n", *seed, *maxAtoms)

	var chaos *chaosChecker
	if *deadline > 0 || *conflictBudget > 0 || *faultRate > 0 {
		chaos = &chaosChecker{
			limits:     budget.Limits{Conflicts: *conflictBudget, Deadline: *deadline},
			faultRate:  *faultRate,
			faultSeed:  *faultSeed,
			goroutines: runtime.NumGoroutine(),
		}
		fmt.Printf("chaos: deadline=%v conflictbudget=%d faultrate=%g faultseed=%d\n",
			*deadline, *conflictBudget, *faultRate, *faultSeed)
	}
	var sc *serveChecker
	if *serveFrac > 0 || *batchFrac > 0 {
		sc = newServeChecker(*faultRate, *faultSeed, *sessionFrac > 0)
		fmt.Printf("serve: servefrac=%g batchfrac=%g faultrate=%g sessions=%v\n",
			*serveFrac, *batchFrac, *faultRate, *sessionFrac > 0)
	}
	var sx *sessionChecker
	if *storeDir != "" && *sessionFrac == 0 {
		*sessionFrac = 0.25
	}
	if *sessionFrac > 0 {
		// The store opens after the chaos baseline is captured, so its
		// flusher goroutine counts against the settle check: a flusher
		// that outlives the store close shows up as a goroutine leak.
		var st *store.Store
		if *storeDir != "" {
			var rec store.Recovery
			var err error
			st, rec, err = store.Open(store.Config{Dir: *storeDir})
			if err != nil {
				fmt.Printf("ddbsoak: store open: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("store: dir=%s recovered artifacts=%d verdicts=%d torntail=%v\n",
				*storeDir, rec.Artifacts, rec.Verdicts, rec.TornTail)
		}
		sx = &sessionChecker{mgr: session.NewManager(session.Config{Store: st}), st: st, dir: *storeDir}
		fmt.Printf("session: sessionfrac=%g\n", *sessionFrac)
	}
	var px *plannerChecker
	if *planFrac > 0 {
		px = newPlannerChecker(*faultRate, *faultSeed)
		fmt.Printf("planner: planfrac=%g faultrate=%g\n", *planFrac, *faultRate)
	}
	divergences := 0
	for i := 0; *iters == 0 || i < *iters; i++ {
		if *verbose && i%500 == 0 && i > 0 {
			fmt.Printf("  %d iterations, %d divergences\n", i, divergences)
		}
		n := 2 + rng.Intn(*maxAtoms-1)
		var d *db.DB
		switch i % 3 {
		case 0:
			d = gen.Random(rng, gen.Positive(n, 1+rng.Intn(6)))
		case 1:
			d = gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		default:
			d = gen.Random(rng, gen.NormalNoIC(n, 1+rng.Intn(6)))
		}
		ok := check(d, rng)
		if chaos != nil {
			ok = chaos.check(d, rng, i) && ok
		}
		if sc != nil && rng.Float64() < *serveFrac {
			ok = sc.check(d, rng) && ok
		}
		if sc != nil && *batchFrac > 0 && rng.Float64() < *batchFrac {
			ok = sc.checkBatch(d, rng) && ok
		}
		if sx != nil && rng.Float64() < *sessionFrac {
			ok = sx.check(d, rng) && ok
		}
		if px != nil && rng.Float64() < *planFrac {
			ok = px.check(d, rng) && ok
		}
		if !ok {
			divergences++
			fmt.Printf("DIVERGENCE at iteration %d (seed %d)\nDB:\n%s\n", i, *seed, d.String())
		}
	}
	// Drain the in-process server before the chaos goroutine-settle
	// check: its listener and idle keep-alive connections must be gone
	// for the leak check to see the true baseline.
	if sc != nil {
		if !sc.close() {
			divergences++
		}
		fmt.Printf("serve cross-check: %d queries, completed=%d interrupted=%d batches=%d batchqueries=%d\n",
			sc.queries, sc.completed, sc.interrupted, sc.batches, sc.batchQueries)
	}
	if sx != nil {
		if !sx.close() {
			divergences++
		}
		st := sx.mgr.Stats()
		fmt.Printf("session cross-check: %d queries, handled=%d fast=%d warm=%d memohits=%d retired=%d\n",
			sx.queries, sx.handled, st.FastQueries, st.WarmQueries, st.MemoHits, st.Retired)
		if sx.st != nil && !sx.replay() {
			divergences++
		}
	}
	if px != nil {
		if !px.close() {
			divergences++
		}
	}
	if chaos != nil {
		if !chaos.settle() {
			divergences++
		}
		fmt.Printf("chaos cross-check: %d queries, completed=%d interrupted=%d\n",
			chaos.queries, chaos.completed, chaos.interrupted)
	}
	if *clusterNodes > 1 {
		if !runClusterSweep(*seed, *clusterNodes, *clusterReqs) {
			divergences++
		}
	}
	if *churnFrac > 0 {
		churnNodes := *clusterNodes
		if churnNodes < 2 {
			churnNodes = 3
		}
		if !runChurnSweep(*seed, churnNodes, *clusterReqs, *churnFrac) {
			divergences++
		}
	}
	if divergences > 0 {
		fmt.Printf("ddbsoak: %d divergences\n", divergences)
		os.Exit(1)
	}
	fmt.Println("ddbsoak: clean")
}

// chaosChecker replays queries under a resource budget with seeded
// fault injection and enforces the three-valued contract: every
// budgeted run either completes with the exact unbudgeted verdict or
// is interrupted with a typed cause — never a silent corruption, an
// untyped error, a panic, or a leaked goroutine.
type chaosChecker struct {
	limits      budget.Limits
	faultRate   float64
	faultSeed   int64
	goroutines  int // baseline at startup
	queries     int
	completed   int
	interrupted int
}

// injector derives a per-query injector so chaos runs are reproducible
// from (-faultseed, iteration) but queries fault independently.
func (ch *chaosChecker) injector(iter, query int) *faults.Injector {
	return faults.NewInjector(ch.faultRate, ch.faultSeed+int64(iter)*1000003+int64(query))
}

func (ch *chaosChecker) oracle(iter, query int) (*oracle.NP, *budget.B) {
	b := budget.New(context.Background(), ch.limits)
	return oracle.NewNP().WithBudget(b).WithFaults(ch.injector(iter, query)), b
}

func (ch *chaosChecker) check(d *db.DB, rng *rand.Rand, iter int) bool {
	lit := logic.NegLit(logic.Atom(rng.Intn(d.N())))
	ok := true

	// Budgeted literal inference vs the unbudgeted production run.
	for q, sem := range []string{"GCWA", "EGCWA", "DSM"} {
		ref, _ := core.New(sem, core.Options{})
		want, refErr := ref.InferLiteral(d, lit)
		if refErr != nil {
			continue // not a budget concern; the plain checker reports it
		}
		o, _ := ch.oracle(iter, q)
		s, _ := core.New(sem, core.Options{Oracle: o})
		ch.queries++
		got, err := s.InferLiteral(d, lit)
		if err != nil {
			if !budget.Interrupted(err) {
				fmt.Printf("  chaos %s: untyped error %v\n", sem, err)
				ok = false
				continue
			}
			ch.interrupted++
			continue
		}
		ch.completed++
		if got != want {
			fmt.Printf("  chaos %s ⊨ %s: silent corruption — budgeted=%v unbudgeted=%v\n",
				sem, d.Voc.LitString(lit), got, want)
			ok = false
		}
	}

	// Budgeted parallel enumeration vs the unbudgeted worker pool:
	// a completed run must produce exactly the reference minimal-model
	// set; an interrupted one must yield a subset.
	refSet := map[string]bool{}
	models.NewEngine(d, oracle.NewNP()).MinimalModels(0, func(m logic.Interp) bool {
		refSet[m.Key()] = true
		return true
	})
	o, _ := ch.oracle(iter, 3)
	eng := models.NewEngine(d, o)
	got := map[string]bool{}
	ch.queries++
	count, err := models.Drain(eng.IterateMinimalModelsPar(0, models.ParOptions{Workers: 4}), func(m logic.Interp) bool {
		got[m.Key()] = true
		return true
	})
	for k := range got {
		if !refSet[k] {
			fmt.Printf("  chaos enumeration yielded a non-minimal model %s\n", k)
			ok = false
		}
	}
	if err != nil {
		if !budget.Interrupted(err) {
			fmt.Printf("  chaos enumeration: untyped error %v\n", err)
			ok = false
		} else {
			ch.interrupted++
		}
	} else {
		ch.completed++
		if count != len(refSet) || len(got) != len(refSet) {
			fmt.Printf("  chaos enumeration completed with %d models, reference has %d\n",
				len(got), len(refSet))
			ok = false
		}
	}
	return ok
}

// settle verifies the goroutine count has returned to the startup
// baseline (modulo runtime workers) once all chaos iterations finished.
func (ch *chaosChecker) settle() bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= ch.goroutines {
			return true
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("  chaos: goroutine leak — %d running, baseline %d\n",
		runtime.NumGoroutine(), ch.goroutines)
	return false
}

// serveChecker replays a subset of iterations through an in-process
// HTTP inference server and cross-checks the served verdicts against
// the brute-force reference semantics — the full wire path (JSON
// encode, parse, clamp, admit, execute, respond) must move nothing.
// When the soak runs in chaos mode the same fault rate is injected on
// the server's oracle path, so served answers must additionally obey
// the three-valued contract: complete-and-correct or interrupted with
// a typed cause from the closed taxonomy.
type serveChecker struct {
	srv          *serve.Server
	hs           *httptest.Server
	queries      int
	completed    int
	interrupted  int
	batches      int
	batchQueries int
}

func newServeChecker(faultRate float64, faultSeed int64, sessions bool) *serveChecker {
	srv := serve.New(serve.Config{FaultRate: faultRate, FaultSeed: faultSeed, RetryMax: 2, Sessions: sessions})
	return &serveChecker{srv: srv, hs: httptest.NewServer(srv.Handler())}
}

// close drains the server and reports whether the drain was clean.
func (sc *serveChecker) close() bool {
	err := sc.srv.Drain(context.Background())
	sc.hs.Close()
	if err != nil {
		fmt.Printf("  serve: drain after soak: %v\n", err)
		return false
	}
	return true
}

func (sc *serveChecker) post(path string, req serve.QueryRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := sc.hs.Client().Post(sc.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (sc *serveChecker) check(d *db.DB, rng *rand.Rand) bool {
	// Queries are phrased against the textual form the server parses, so
	// the database must survive the round trip (atoms in no clause are
	// dropped by parsing).
	rt, err := db.Parse(d.String())
	if err != nil || rt.N() == 0 {
		return true
	}
	lit := logic.NegLit(logic.Atom(rng.Intn(rt.N())))
	litText := rt.Voc.LitString(lit)
	ok := true

	type refFn func(*db.DB) []logic.Interp
	cases := []struct {
		sem      string
		ref      refFn
		positive bool
		noIC     bool
	}{
		{"GCWA", refsem.GCWA, false, false},
		{"EGCWA", refsem.EGCWA, false, false},
		{"DDR", refsem.DDR, true, false},
		{"PWS", refsem.PWS, true, false},
		{"DSM", refsem.DSM, false, false},
		{"PERF", refsem.PERF, false, true},
	}
	for _, c := range cases {
		if c.positive && rt.HasNegation() {
			continue
		}
		if c.noIC && rt.HasIntegrityClauses() {
			continue
		}
		sc.queries++
		status, data, err := sc.post("/v1/infer/literal", serve.QueryRequest{
			Semantics: c.sem, DB: rt.String(), Literal: litText,
		})
		if err != nil {
			fmt.Printf("  serve %s: transport error %v\n", c.sem, err)
			ok = false
			continue
		}
		if status != http.StatusOK {
			fmt.Printf("  serve %s: status %d body %s\n", c.sem, status, data)
			ok = false
			continue
		}
		var qr serve.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			fmt.Printf("  serve %s: unparseable 200 body %q: %v\n", c.sem, data, err)
			ok = false
			continue
		}
		if qr.Incomplete {
			if !serve.KnownCauseCodes[qr.CauseCode] {
				fmt.Printf("  serve %s: untyped interruption cause %q\n", c.sem, qr.CauseCode)
				ok = false
				continue
			}
			sc.interrupted++
			continue
		}
		sc.completed++
		want := refsem.Entails(c.ref(rt), logic.LitF(lit))
		if qr.Holds != want {
			fmt.Printf("  serve %s ⊨ %s: served=%v reference=%v\n", c.sem, litText, qr.Holds, want)
			ok = false
		}
	}
	return ok
}

// checkBatch replays negative-literal queries over every atom through
// one /v1/batch request and cross-checks each per-query verdict against
// the brute-force references — the batch pipeline (shared compile, warm
// checkout groups, fresh leftovers) must agree with sequential serving
// and with the reference semantics on every member.
func (sc *serveChecker) checkBatch(d *db.DB, rng *rand.Rand) bool {
	rt, err := db.Parse(d.String())
	if err != nil || rt.N() == 0 {
		return true
	}
	type batchCase struct {
		sem string
		ref func(*db.DB) []logic.Interp
		lit logic.Lit
	}
	var cases []batchCase
	for v := 0; v < rt.N(); v++ {
		lit := logic.NegLit(logic.Atom(v))
		cases = append(cases, batchCase{"GCWA", refsem.GCWA, lit}, batchCase{"EGCWA", refsem.EGCWA, lit})
		if !rt.HasNegation() {
			cases = append(cases, batchCase{"PWS", refsem.PWS, lit})
		}
	}
	breq := serve.BatchRequest{DB: rt.String()}
	for _, c := range cases {
		breq.Queries = append(breq.Queries, serve.BatchQuery{
			Kind: "literal", Semantics: c.sem, Literal: rt.Voc.LitString(c.lit),
		})
	}
	body, err := json.Marshal(breq)
	if err != nil {
		fmt.Printf("  batch: marshal: %v\n", err)
		return false
	}
	resp, err := sc.hs.Client().Post(sc.hs.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Printf("  batch: transport error %v\n", err)
		return false
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fmt.Printf("  batch: status %d body %s\n", resp.StatusCode, data)
		return false
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		fmt.Printf("  batch: unparseable 200 body: %v\n", err)
		return false
	}
	if len(br.Results) != len(cases) {
		fmt.Printf("  batch: %d results for %d queries\n", len(br.Results), len(cases))
		return false
	}
	sc.batches++
	sc.batchQueries += len(cases)
	ok := true
	for i, item := range br.Results {
		c := cases[i]
		switch {
		case item.Error != nil:
			fmt.Printf("  batch %s ⊨ %s: unexpected error entry %q\n", c.sem, rt.Voc.LitString(c.lit), item.Error.Error)
			ok = false
		case item.Response == nil:
			fmt.Printf("  batch query %d: neither response nor error\n", i)
			ok = false
		case item.Response.Incomplete:
			if !serve.KnownCauseCodes[item.Response.CauseCode] {
				fmt.Printf("  batch %s: untyped cause %q\n", c.sem, item.Response.CauseCode)
				ok = false
			}
		default:
			want := refsem.Entails(c.ref(rt), logic.LitF(c.lit))
			if item.Response.Holds != want {
				fmt.Printf("  batch %s ⊨ %s: served=%v reference=%v\n",
					c.sem, rt.Voc.LitString(c.lit), item.Response.Holds, want)
				ok = false
			}
		}
	}
	return ok
}

// plannerChecker replays a subset of iterations through an in-process
// server with the cost-based planner enabled, shared across all
// iterations so the estimator warms up: first sight of a (database,
// semantics) key routes cold (fresh for the tiny Σ₂ᵖ cases, warm or
// fast otherwise), the repeat is served from a calibrated estimate.
// Every completed verdict — whatever procedure the planner picked —
// must match the brute-force references, and interruptions must carry
// typed causes. close() asserts the /healthz planner section is
// populated: decisions, observations and served estimates.
type plannerChecker struct {
	srv         *serve.Server
	hs          *httptest.Server
	queries     int
	completed   int
	interrupted int
	brutes      int // completed responses served via the brute procedure
}

func newPlannerChecker(faultRate float64, faultSeed int64) *plannerChecker {
	srv := serve.New(serve.Config{FaultRate: faultRate, FaultSeed: faultSeed, RetryMax: 2, Planner: true})
	return &plannerChecker{srv: srv, hs: httptest.NewServer(srv.Handler())}
}

func (px *plannerChecker) check(d *db.DB, rng *rand.Rand) bool {
	rt, err := db.Parse(d.String())
	if err != nil || rt.N() == 0 {
		return true
	}
	lit := logic.NegLit(logic.Atom(rng.Intn(rt.N())))
	litText := rt.Voc.LitString(lit)
	ok := true

	cases := []struct {
		sem      string
		ref      func(*db.DB) []logic.Interp
		positive bool
		noIC     bool
	}{
		{"GCWA", refsem.GCWA, false, false}, // warm-session route
		{"EGCWA", refsem.EGCWA, false, false},
		{"DDR", refsem.DDR, true, false}, // NP-class, brute-eligible
		{"PWS", refsem.PWS, true, false},
		{"DSM", refsem.DSM, false, false}, // Σ₂ᵖ-class, fresh or brute route
		{"PERF", refsem.PERF, false, true},
	}
	for _, c := range cases {
		if c.positive && rt.HasNegation() {
			continue
		}
		if c.noIC && rt.HasIntegrityClauses() {
			continue
		}
		want := refsem.Entails(c.ref(rt), logic.LitF(lit))
		// Twice per case: the first request may route cold (fresh), the
		// second must see the estimate the first one calibrated.
		for rep := 0; rep < 2; rep++ {
			px.queries++
			body, _ := json.Marshal(serve.QueryRequest{Semantics: c.sem, DB: rt.String(), Literal: litText})
			resp, err := px.hs.Client().Post(px.hs.URL+"/v1/infer/literal", "application/json", bytes.NewReader(body))
			if err != nil {
				fmt.Printf("  planner %s: transport error %v\n", c.sem, err)
				ok = false
				continue
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Printf("  planner %s: status %d body %s\n", c.sem, resp.StatusCode, data)
				ok = false
				continue
			}
			var qr serve.QueryResponse
			if err := json.Unmarshal(data, &qr); err != nil {
				fmt.Printf("  planner %s: unparseable 200 body %q: %v\n", c.sem, data, err)
				ok = false
				continue
			}
			if qr.Incomplete {
				if !serve.KnownCauseCodes[qr.CauseCode] {
					fmt.Printf("  planner %s: untyped interruption cause %q\n", c.sem, qr.CauseCode)
					ok = false
					continue
				}
				px.interrupted++
				continue
			}
			px.completed++
			if qr.Path == "brute" {
				px.brutes++
			}
			if qr.Holds != want {
				fmt.Printf("  planner %s ⊨ %s (path %q): served=%v reference=%v\n",
					c.sem, litText, qr.Path, qr.Holds, want)
				ok = false
			}
		}
	}
	return ok
}

// close drains the planner server and asserts its /healthz planner
// section is populated — the planner must have decided, observed, and
// served estimates — and that every brute answer had a brute decision.
func (px *plannerChecker) close() bool {
	ok := true
	ps := map[string]int64{}
	if h, err := serve.FetchHealth(px.hs.Client(), px.hs.URL); err != nil {
		fmt.Printf("  planner: healthz fetch: %v\n", err)
		ok = false
	} else {
		ps = h.Planner
	}
	if err := px.srv.Drain(context.Background()); err != nil {
		fmt.Printf("  planner: drain after soak: %v\n", err)
		ok = false
	}
	px.hs.Close()
	if px.queries > 0 {
		if len(ps) == 0 {
			fmt.Println("  planner: /healthz planner section empty")
			return false
		}
		if ps["decisions"] == 0 {
			fmt.Println("  planner: zero decisions recorded for a nonzero query count")
			ok = false
		}
		if px.completed > 0 && ps["observations"] == 0 {
			fmt.Println("  planner: zero cost observations despite completed queries")
			ok = false
		}
		if px.completed > 0 && ps["estimates_served"] == 0 {
			fmt.Println("  planner: no estimate ever served despite repeated keys")
			ok = false
		}
		// Every brute answer was routed brute by a decision; a brute
		// path with no matching decision means execution bypassed the
		// planner.
		if int64(px.brutes) > ps["routed_brute"] {
			fmt.Printf("  planner: %d brute answers but only %d brute decisions\n", px.brutes, ps["routed_brute"])
			ok = false
		}
	}
	fmt.Printf("planner cross-check: %d queries, completed=%d interrupted=%d brute=%d "+
		"(healthz: decisions=%d est_served=%d observations=%d routed_brute=%d shed_cost=%d)\n",
		px.queries, px.completed, px.interrupted, px.brutes,
		ps["decisions"], ps["estimates_served"], ps["observations"], ps["routed_brute"], ps["shed_cost"])
	return ok
}

// sessionChecker replays literal queries through one warm session
// manager shared across all iterations — the compiled-DB cache, the
// fragment fast paths, and the warm incremental engines all accumulate
// state — and cross-checks every verdict the layer handles against the
// brute-force references. Repeats of a handled query must cost zero NP
// calls, and no checkout may leak by the end of the soak.
type sessionChecker struct {
	mgr      *session.Manager
	st       *store.Store
	dir      string
	queries  int
	handled  int
	recorded []soakVerdict
}

// soakVerdict is one handled verdict remembered for the post-soak
// restart replay. The database is kept as the exact interned text so
// the replay manager's store lookup hits the same artifact key.
type soakVerdict struct {
	dbText string
	sem    string
	atom   string
	holds  bool
}

// maxRecorded bounds replay memory on long unbounded soaks.
const maxRecorded = 2048

func (sx *sessionChecker) check(d *db.DB, rng *rand.Rand) bool {
	comp := sx.mgr.InternDB(d)
	lit := logic.NegLit(logic.Atom(rng.Intn(d.N())))
	ok := true
	ctx := context.Background()

	type refFn func(*db.DB) []logic.Interp
	cases := []struct {
		sem      string
		ref      refFn
		positive bool
		noIC     bool
	}{
		{"GCWA", refsem.GCWA, false, false},
		{"EGCWA", refsem.EGCWA, false, false},
		{"DDR", refsem.DDR, true, false},
		{"PWS", refsem.PWS, true, false},
		{"DSM", refsem.DSM, false, false},
		{"PERF", refsem.PERF, false, true},
	}
	for _, c := range cases {
		if c.positive && d.HasNegation() {
			continue
		}
		if c.noIC && d.HasIntegrityClauses() {
			continue
		}
		sx.queries++
		req := session.Request{Sem: c.sem, Kind: session.KindLiteral, Lit: lit, QueryText: d.Voc.LitString(lit)}
		res, handled := sx.mgr.Query(ctx, comp, req)
		if !handled {
			continue
		}
		if res.Err != nil {
			fmt.Printf("  session %s: unbudgeted query interrupted: %v\n", c.sem, res.Err)
			ok = false
			continue
		}
		sx.handled++
		if sx.st != nil && len(sx.recorded) < maxRecorded {
			sx.recorded = append(sx.recorded, soakVerdict{
				dbText: d.String(), sem: c.sem, atom: d.Voc.Name(lit.Atom()), holds: res.Holds,
			})
		}
		want := refsem.Entails(c.ref(d), logic.LitF(lit))
		if res.Holds != want {
			fmt.Printf("  session %s ⊨ %s (path %s): session=%v reference=%v\n",
				c.sem, d.Voc.LitString(lit), res.Path, res.Holds, want)
			ok = false
		}
		if res.Path == "fast" && res.Counters.NPCalls != 0 {
			fmt.Printf("  session %s: fast path consumed %d NP calls\n", c.sem, res.Counters.NPCalls)
			ok = false
		}
		res2, h2 := sx.mgr.Query(ctx, comp, req)
		if !h2 || res2.Err != nil || res2.Holds != want || res2.Counters.NPCalls != 0 {
			fmt.Printf("  session %s: repeat diverged (handled=%v err=%v holds=%v np=%d want=%v)\n",
				c.sem, h2, res2.Err, res2.Holds, res2.Counters.NPCalls, want)
			ok = false
		}
	}
	return ok
}

// close verifies no session is still checked out after the soak, and
// when a store is attached, flushes it and asserts its write-behind
// flusher goroutine actually exited — a clean drain contract, checked
// before the chaos goroutine-settle so a lingering flusher is caught
// by name here rather than as an anonymous leak there.
func (sx *sessionChecker) close() bool {
	ok := true
	if st := sx.mgr.Stats(); st.ActiveCheckouts != 0 {
		fmt.Printf("  session: checkout leak — %d outstanding\n", st.ActiveCheckouts)
		ok = false
	}
	if sx.st != nil {
		if err := sx.st.Close(); err != nil {
			fmt.Printf("  session: store close: %v\n", err)
			ok = false
		}
		if s := sx.st.Stats(); s.FlusherRunning {
			fmt.Println("  session: store flusher goroutine still running after close")
			ok = false
		} else if s.WriteErrors != 0 {
			fmt.Printf("  session: store reported %d write errors\n", s.WriteErrors)
			ok = false
		}
	}
	return ok
}

// replay is the restart half of the persistence contract: reopen the
// store directory in a second, pre-warmed manager — standing in for a
// restarted process — and require every recorded verdict to reproduce
// identically without a single cold compile. Recorded verdicts were
// already cross-checked against the brute-force references when they
// were handled, so identity here transitively proves identity between
// the cold process, the pre-warmed process, and direct library calls.
func (sx *sessionChecker) replay() bool {
	st2, rec, err := store.Open(store.Config{Dir: sx.dir})
	if err != nil {
		fmt.Printf("  store replay: reopen: %v\n", err)
		return false
	}
	defer st2.Close()
	mgr2 := session.NewManager(session.Config{Store: st2})
	warmed, err := mgr2.Prewarm()
	if err != nil {
		fmt.Printf("  store replay: prewarm: %v\n", err)
		return false
	}
	ok := true
	replayed := 0
	ctx := context.Background()
	for _, r := range sx.recorded {
		d, err := db.Parse(r.dbText)
		if err != nil {
			fmt.Printf("  store replay: recorded db no longer parses: %v\n", err)
			ok = false
			continue
		}
		a, found := d.Voc.Lookup(r.atom)
		if !found {
			continue // atom lost in the textual round trip: not comparable
		}
		lit := logic.NegLit(a)
		comp := mgr2.Intern(r.dbText, d)
		res, handled := mgr2.Query(ctx, comp, session.Request{
			Sem: r.sem, Kind: session.KindLiteral, Lit: lit, QueryText: d.Voc.LitString(lit),
		})
		if !handled {
			continue
		}
		if res.Err != nil {
			fmt.Printf("  store replay %s: query error: %v\n", r.sem, res.Err)
			ok = false
			continue
		}
		replayed++
		if res.Holds != r.holds {
			fmt.Printf("  store replay %s ⊨ %s: restarted=%v recorded=%v\nDB:\n%s\n",
				r.sem, d.Voc.LitString(lit), res.Holds, r.holds, r.dbText)
			ok = false
		}
	}
	st := mgr2.Stats()
	if st.ColdCompiles != 0 {
		fmt.Printf("  store replay: pre-warmed manager ran %d cold compiles, want 0\n", st.ColdCompiles)
		ok = false
	}
	if len(sx.recorded) > 0 && replayed == 0 {
		fmt.Printf("  store replay: compared zero of %d recorded verdicts\n", len(sx.recorded))
		ok = false
	}
	fmt.Printf("store replay: recovered artifacts=%d verdicts=%d, prewarmed=%d, replayed=%d/%d, coldcompiles=%d\n",
		rec.Artifacts, rec.Verdicts, warmed, replayed, len(sx.recorded), st.ColdCompiles)
	return ok
}

// check cross-validates one database across all applicable semantics.
func check(d *db.DB, rng *rand.Rand) bool {
	n := d.N()
	x := logic.Atom(rng.Intn(n))
	lit := logic.NegLit(x)
	ok := true

	type refFn func(*db.DB) []logic.Interp
	cases := []struct {
		sem      string
		ref      refFn
		positive bool // requires no negation
		noIC     bool // requires no integrity clauses
	}{
		{"GCWA", refsem.GCWA, false, false},
		{"EGCWA", refsem.EGCWA, false, false},
		{"DDR", refsem.DDR, true, false},
		{"PWS", refsem.PWS, true, false},
		{"DSM", refsem.DSM, false, false},
		{"PERF", refsem.PERF, false, true},
	}
	for _, c := range cases {
		if c.positive && d.HasNegation() {
			continue
		}
		if c.noIC && d.HasIntegrityClauses() {
			continue
		}
		s, _ := core.New(c.sem, core.Options{})
		want := refsem.Entails(c.ref(d), logic.LitF(lit))
		got, err := s.InferLiteral(d, lit)
		if err != nil {
			fmt.Printf("  %s: error %v\n", c.sem, err)
			ok = false
			continue
		}
		if got != want {
			fmt.Printf("  %s ⊨ %s: production=%v reference=%v\n",
				c.sem, d.Voc.LitString(lit), got, want)
			ok = false
		}
	}
	return ok
}
