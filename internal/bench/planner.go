package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/plan"
	"disjunct/internal/session"
)

// PlannerCase is one (instance family × semantics) planner-off vs
// planner-on comparison. The planner-off leg answers every query with
// a fresh engine; the planner-on leg routes each query through the
// serve layer's procedure ladder — warm session (fast paths and warm
// engines), brute refsem for tiny instances the cost model has read as
// expensive, and the fresh path otherwise, cold keys included.
// runPlannerSweep asserts that routing never moves a verdict and that
// fast-path and brute answers consume zero oracle calls. The planner-on
// total is reported but not bounded: a cold warm-engine pass may
// legitimately spend a few more oracle calls than fresh engines before
// memoization pays it back. Wall-clock is reported, never gated; the
// planner-off NP total is the deterministic counter benchgate pins.
type PlannerCase struct {
	Name      string `json:"name"`
	Semantics string `json:"semantics"`
	Fragment  string `json:"fragment"`
	Atoms     int    `json:"atoms"`
	Queries   int    `json:"queries"`

	// Actual executed routes (from each answer's path, not the
	// decision): fast + warm are session-handled, the rest planner-routed.
	Fast  int `json:"fast_queries"`
	Warm  int `json:"warm_queries"`
	Fresh int `json:"fresh_queries"`
	Brute int `json:"brute_queries"`

	OffNP  int64 `json:"planner_off_np_calls"` // pinned by benchgate
	OnNP   int64 `json:"planner_on_np_calls"`  // reported, not gated
	FastNP int64 `json:"fast_np_calls"`        // bounded: zero

	Divergent int `json:"divergent"` // bounded: zero (also a hard sweep failure)

	OffMS   float64 `json:"planner_off_ms"`
	OnMS    float64 `json:"planner_on_ms"`
	Speedup float64 `json:"speedup"`
}

// plannerQuery is one literal or model-existence probe. Formula
// queries stay out of this sweep: their route support differs per
// semantics and the session sweep already audits them.
type plannerQuery struct {
	kind session.Kind
	lit  logic.Lit
	text string
}

func plannerQueries(d *db.DB) []plannerQuery {
	var qs []plannerQuery
	for a := 0; a < d.N(); a++ {
		for _, l := range []logic.Lit{logic.PosLit(logic.Atom(a)), logic.NegLit(logic.Atom(a))} {
			qs = append(qs, plannerQuery{kind: session.KindLiteral, lit: l, text: d.Voc.LitString(l)})
		}
	}
	return append(qs, plannerQuery{kind: session.KindModel})
}

// plannerDBs builds the seeded instance families: a definite program
// (fast path), a general positive database too large for brute
// construction (warm sessions), and a tiny general positive database
// inside the brute cap (fresh while cold or cheap, brute once the cost
// model reads the key as expensive; CWA on the same instance pins the
// NP-class fresh route the planner must leave alone).
func plannerDBs(scale Scale) []struct {
	name string
	db   *db.DB
	sems []string
} {
	rng := rand.New(rand.NewSource(101))
	defN, warmN := 10, 9
	if scale == Full {
		defN, warmN = 14, 12
	}

	def := db.New()
	var as []logic.Atom
	for i := 0; i < defN; i++ {
		as = append(as, def.Voc.Intern(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < 3*defN/2; i++ {
		head := as[rng.Intn(defN)]
		var body []logic.Atom
		for _, a := range as {
			if a != head && rng.Intn(4) == 0 {
				body = append(body, a)
			}
		}
		def.AddRule([]logic.Atom{head}, body, nil)
	}

	// Warm and tiny families: regenerate until no fast-path fragment
	// applies, so the measured routes are the ones named above.
	var warm *db.DB
	for {
		warm = gen.Random(rng, gen.Positive(warmN, 3*warmN/2))
		if session.Compile("", warm).Frag == session.FragGeneral {
			break
		}
	}
	var tiny *db.DB
	for {
		tiny = gen.Random(rng, gen.Positive(6, 9))
		if session.Compile("", tiny).Frag == session.FragGeneral {
			break
		}
	}

	return []struct {
		name string
		db   *db.DB
		sems []string
	}{
		{fmt.Sprintf("definite-n%d", defN), def, []string{"GCWA"}},
		{fmt.Sprintf("warm-pos-n%d", warmN), warm, []string{"GCWA", "CIRC"}},
		{"tiny-pos-n6", tiny, []string{"DSM", "CWA"}},
	}
}

// plannerFresh answers one query with a fresh engine and oracle — the
// planner-off procedure and the planner's fresh route.
func plannerFresh(d *db.DB, semName string, q plannerQuery) (bool, oracle.Counters, error) {
	o := oracle.NewNP()
	s, ok := core.New(semName, core.Options{Oracle: o})
	if !ok {
		return false, oracle.Counters{}, fmt.Errorf("semantics %q not registered", semName)
	}
	var holds bool
	var err error
	switch q.kind {
	case session.KindLiteral:
		holds, err = s.InferLiteral(d, q.lit)
	default:
		holds, err = s.HasModel(d)
	}
	return holds, o.Counters(), err
}

// plannerRoute is the serve layer's procedure ladder in library form:
// the warm session first, then the planner's routed procedure, then
// the fresh path. Every finished query's counters feed the cost model,
// exactly as the server observes them.
func plannerRoute(ctx context.Context, planner *plan.Planner, mgr *session.Manager, comp *session.Compiled, d *db.DB, semName string, q plannerQuery) (holds bool, np int64, path string, err error) {
	dec := planner.Decide(comp, semName, q.kind)
	observe := func(c oracle.Counters) {
		planner.Observe(comp.Raw, semName, plan.Cost{NPCalls: c.NPCalls})
	}

	if res, handled := mgr.Query(ctx, comp, session.Request{
		Sem: semName, Kind: q.kind, Lit: q.lit, QueryText: q.text,
	}); handled {
		if res.Err != nil {
			return false, 0, "", fmt.Errorf("session %s: %v", q.text, res.Err)
		}
		observe(res.Counters)
		return res.Holds, res.Counters.NPCalls, res.Path, nil
	}

	if dec.Proc == plan.ProcBrute {
		if h, ok := plan.Brute(ctx, comp, semName, q.kind, q.lit, nil, planner.BruteMaxAtoms()); ok {
			observe(oracle.Counters{})
			return h, 0, "brute", nil
		}
	}

	h, c, ferr := plannerFresh(d, semName, q)
	if ferr != nil {
		return false, 0, "", ferr
	}
	observe(c)
	return h, c.NPCalls, "", nil
}

// runPlannerCase drives the doubled query stream for one (instance,
// semantics) pair through both legs — plus, when the pair is inside
// the brute cap, a third round after inflating the key's estimate, in
// which every planner-routed query must go brute and answer for zero
// oracle calls.
func runPlannerCase(name string, d *db.DB, semName string) (PlannerCase, error) {
	pc := PlannerCase{Name: name, Semantics: semName, Atoms: d.N()}
	ctx := context.Background()
	qs := plannerQueries(d)

	planner := plan.New(plan.Config{})
	mgr := session.NewManager(session.Config{})
	comp := mgr.InternDB(d)
	pc.Fragment = comp.Frag.String()
	forced := plan.BruteEligible(comp, semName, planner.BruteMaxAtoms())
	rounds := 2
	if forced {
		rounds = 3
	}

	// Planner-off leg: a fresh engine per query, every round. The
	// per-query verdicts and NP counts double as the on-leg reference.
	want := make([]bool, len(qs))
	offStart := time.Now()
	for round := 0; round < rounds; round++ {
		for i, q := range qs {
			h, c, err := plannerFresh(d, semName, q)
			if err != nil {
				return pc, fmt.Errorf("planner %s/%s: fresh %q: %v", name, semName, q.text, err)
			}
			pc.OffNP += c.NPCalls
			if round == 0 {
				want[i] = h
			} else if h != want[i] {
				return pc, fmt.Errorf("planner %s/%s: fresh leg is non-deterministic on %q", name, semName, q.text)
			}
		}
	}
	pc.OffMS = float64(time.Since(offStart).Microseconds()) / 1e3

	onStart := time.Now()
	for round := 0; round < rounds; round++ {
		if forced && round == 2 {
			// Teach the cost model the key is expensive: from here every
			// planner-routed decision for it must pick brute.
			planner.Observe(comp.Raw, semName, plan.Cost{NPCalls: 10_000})
		}
		for i, q := range qs {
			h, np, path, err := plannerRoute(ctx, planner, mgr, comp, d, semName, q)
			if err != nil {
				return pc, fmt.Errorf("planner %s/%s: %v", name, semName, err)
			}
			pc.Queries++
			pc.OnNP += np
			if h != want[i] {
				pc.Divergent++
				return pc, fmt.Errorf("planner %s/%s: %s %q verdict diverged: off %v, on %v (path %q)",
					name, semName, q.kind, q.text, want[i], h, path)
			}
			switch {
			case path == "fast":
				pc.Fast++
				pc.FastNP += np
			case path == "brute":
				pc.Brute++
				if np != 0 {
					return pc, fmt.Errorf("planner %s/%s: brute answer for %q consumed %d NP calls, want 0", name, semName, q.text, np)
				}
			case path == "":
				pc.Fresh++
			default:
				pc.Warm++
			}
			// Expensive-estimate round: every answer must be free — the
			// session's zero-NP routes or the oracle-free brute set.
			if forced && round == 2 && path != "brute" && np != 0 {
				return pc, fmt.Errorf("planner %s/%s: expensive-estimate round routed %q via %q for %d NP calls, want brute",
					name, semName, q.text, path, np)
			}
		}
	}
	pc.OnMS = float64(time.Since(onStart).Microseconds()) / 1e3

	if st := mgr.Stats(); st.ActiveCheckouts != 0 {
		return pc, fmt.Errorf("planner %s/%s: %d checkouts leaked", name, semName, st.ActiveCheckouts)
	}
	if pc.FastNP != 0 {
		return pc, fmt.Errorf("planner %s/%s: fast path consumed %d NP calls, want 0", name, semName, pc.FastNP)
	}
	if pc.OnMS > 0 {
		pc.Speedup = pc.OffMS / pc.OnMS
	}
	return pc, nil
}

// runPlannerSweep is the cost-based-routing section of RunParallel:
// the planner-off vs planner-on comparison with the verdict-identity
// and zero-NP invariants enforced inline, plus route coverage so the
// identity claim is non-vacuous.
func runPlannerSweep(scale Scale, w io.Writer, rep *ParallelReport) error {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  cost-based planner (same workload, planner off vs on):\n")
	fmt.Fprintf(w, "  %-14s %-5s %-12s %4s %5s %5s %6s %6s %8s %8s %10s %10s %8s\n",
		"instance", "sem", "fragment", "q", "fast", "warm", "fresh", "brute", "NP-off", "NP-on", "off", "on", "speedup")

	for _, fam := range plannerDBs(scale) {
		for _, semName := range fam.sems {
			pc, err := runPlannerCase(fam.name, fam.db, semName)
			if err != nil {
				return err
			}
			// Route coverage: the family each route was designed around
			// must actually exercise it.
			switch {
			case pc.Fragment == "definite" && pc.Fast == 0:
				return fmt.Errorf("planner %s/%s: definite family never hit the fast path", pc.Name, pc.Semantics)
			case strings.HasPrefix(fam.name, "warm") && pc.Warm == 0:
				return fmt.Errorf("planner %s/%s: warm family never hit a warm session", pc.Name, pc.Semantics)
			case strings.HasPrefix(fam.name, "tiny") && pc.Semantics == "DSM" && (pc.Fresh == 0 || pc.Brute == 0):
				return fmt.Errorf("planner %s/%s: tiny family skipped fresh (%d) or brute (%d) coverage",
					pc.Name, pc.Semantics, pc.Fresh, pc.Brute)
			case pc.Semantics == "CWA" && pc.Fresh == 0:
				return fmt.Errorf("planner %s/%s: NP-class family never took the fresh path", pc.Name, pc.Semantics)
			}
			rep.Planner = append(rep.Planner, pc)
			fmt.Fprintf(w, "  %-14s %-5s %-12s %4d %5d %5d %6d %6d %8d %8d %10s %10s %7.1fx\n",
				pc.Name, pc.Semantics, pc.Fragment, pc.Queries, pc.Fast, pc.Warm, pc.Fresh, pc.Brute,
				pc.OffNP, pc.OnNP,
				fmtDuration(time.Duration(pc.OffMS*float64(time.Millisecond))),
				fmtDuration(time.Duration(pc.OnMS*float64(time.Millisecond))),
				pc.Speedup)
		}
	}
	return nil
}
