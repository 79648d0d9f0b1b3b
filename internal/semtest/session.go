// Package semtest provides the shared verdict-identity harnesses used
// by the semantics, session and planner tests: CrossCheckSession runs
// each semantics through a warm session and CrossCheckProcedures
// through every planner procedure, and both demand verdicts equal to a
// fresh library run on the same database.
package semtest

import (
	"context"
	"math/rand"
	"testing"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/session"
)

// SessionCheckStats summarises one CrossCheckSession run so callers
// can assert route coverage (which queries the session layer handled,
// and how) per semantics and generator mix.
type SessionCheckStats struct {
	Queries   int   // queries issued
	Handled   int   // queries the session layer answered
	Fast      int   // of those, fragment fast path (0 NP calls each)
	Warm      int   // of those, warm incremental sessions
	SessionNP int64 // NP calls spent by the session layer (all queries)
	FreshNP   int64 // NP calls the fresh path spent on the SAME handled queries
	Trips     int   // injected mid-session budget trips observed
}

// CrossCheckSession runs the named semantics over iters databases from
// dbFor and cross-checks the session layer (fragment fast path + warm
// incremental sessions, one shared Manager across all iterations)
// against the fresh engines: identical verdicts on every handled
// query, zero NP calls on fast-path and memoized queries, and — over
// the whole workload — session NP totals never exceeding what the
// fresh path spent on the same queries. Every handled query is issued
// twice (the repeat must be free), and warm sessions are periodically
// interrupted by a one-NP-call budget to verify that verdicts after a
// mid-session trip still match the fresh engine.
func CrossCheckSession(t *testing.T, semName string, iters int, dbFor func(iter int, rng *rand.Rand) *db.DB) SessionCheckStats {
	t.Helper()
	rng := rand.New(rand.NewSource(733))
	mgr := session.NewManager(session.Config{})
	ctx := context.Background()
	var stats SessionCheckStats

	check := func(iter int, d *db.DB, comp *session.Compiled, req session.Request,
		fresh core.Semantics, freshOra *oracle.NP, run func() (bool, error)) {
		t.Helper()
		stats.Queries++
		before := freshOra.Counters().NPCalls
		want, wantErr := run()
		freshDelta := freshOra.Counters().NPCalls - before
		res, handled := mgr.Query(ctx, comp, req)
		if !handled {
			return
		}
		if wantErr != nil {
			t.Fatalf("iter %d: %s %s %q: session handled a query the fresh path rejects (%v)\nDB:\n%s",
				iter, semName, req.Kind, req.QueryText, wantErr, d.String())
		}
		if res.Err != nil {
			t.Fatalf("iter %d: %s %s %q: unexpected session interruption: %v\nDB:\n%s",
				iter, semName, req.Kind, req.QueryText, res.Err, d.String())
		}
		if res.Holds != want {
			t.Fatalf("iter %d: %s %s %q: session=%v (path %s) fresh=%v\nDB:\n%s",
				iter, semName, req.Kind, req.QueryText, res.Holds, res.Path, want, d.String())
		}
		stats.Handled++
		stats.SessionNP += res.Counters.NPCalls
		// The workload issues every query twice (see below); the fresh
		// path — deterministic, stateless across requests — would pay
		// the same NP cost on each issue, while the session pays once
		// and answers the repeat from the memo or the fragment model.
		stats.FreshNP += 2 * freshDelta
		switch res.Path {
		case "fast":
			stats.Fast++
			if res.Counters.NPCalls != 0 {
				t.Fatalf("iter %d: %s %s %q: fast path consumed %d NP calls",
					iter, semName, req.Kind, req.QueryText, res.Counters.NPCalls)
			}
		case "session":
			stats.Warm++
		default:
			t.Fatalf("iter %d: unknown session path %q", iter, res.Path)
		}
		// A repeat of a handled query must be free: fast paths never
		// consult the oracle, warm sessions answer from the memo.
		res2, handled2 := mgr.Query(ctx, comp, req)
		if !handled2 || res2.Err != nil || res2.Holds != want {
			t.Fatalf("iter %d: %s %s %q: repeat diverged (handled=%v err=%v holds=%v want=%v)",
				iter, semName, req.Kind, req.QueryText, handled2, res2.Err, res2.Holds, want)
		}
		stats.SessionNP += res2.Counters.NPCalls
		if res2.Counters.NPCalls != 0 {
			t.Fatalf("iter %d: %s %s %q: repeat consumed %d NP calls (want 0)",
				iter, semName, req.Kind, req.QueryText, res2.Counters.NPCalls)
		}
	}

	for iter := 0; iter < iters; iter++ {
		d := dbFor(iter, rng)
		comp := mgr.InternDB(d)
		freshOra := oracle.NewNP()
		fresh, ok := core.New(semName, core.Options{Oracle: freshOra})
		if !ok {
			t.Fatalf("semantics %q not registered", semName)
		}

		for a := 0; a < d.N(); a++ {
			for _, lit := range []logic.Lit{logic.PosLit(logic.Atom(a)), logic.NegLit(logic.Atom(a))} {
				lit := lit
				req := session.Request{Sem: semName, Kind: session.KindLiteral, Lit: lit, QueryText: d.Voc.LitString(lit)}
				check(iter, d, comp, req, fresh, freshOra, func() (bool, error) { return fresh.InferLiteral(d, lit) })
			}
		}
		f := sessionRandomFormula(rng, d.N(), 2)
		freq := session.Request{Sem: semName, Kind: session.KindFormula, F: f, QueryText: f.String(d.Voc)}
		check(iter, d, comp, freq, fresh, freshOra, func() (bool, error) { return fresh.InferFormula(d, f) })
		mreq := session.Request{Sem: semName, Kind: session.KindModel}
		check(iter, d, comp, mreq, fresh, freshOra, func() (bool, error) { return fresh.HasModel(d) })

		// Mid-session budget trip: interrupt a warm query with a 1-NP-call
		// budget, then verify the session still answers correctly after
		// the trip (the interrupted engine is retired, the memo survives).
		if iter%3 == 0 && d.N() > 0 {
			lit := logic.PosLit(logic.Atom(rng.Intn(d.N())))
			text := "trip:" + d.Voc.LitString(lit)
			b := budget.New(context.Background(), budget.Limits{NPCalls: 1})
			req := session.Request{Sem: semName, Kind: session.KindLiteral, Lit: lit, QueryText: text, Budget: b}
			res, handled := mgr.Query(ctx, comp, req)
			if handled && res.Err != nil {
				if !budget.Interrupted(res.Err) {
					t.Fatalf("iter %d: %s: untyped session interruption: %v", iter, semName, res.Err)
				}
				stats.Trips++
				want, wantErr := fresh.InferLiteral(d, lit)
				res2, handled2 := mgr.Query(ctx, comp, session.Request{Sem: semName, Kind: session.KindLiteral, Lit: lit, QueryText: text})
				if !handled2 || res2.Err != nil || wantErr != nil || res2.Holds != want {
					t.Fatalf("iter %d: %s: post-trip divergence (handled=%v err=%v holds=%v want=%v wantErr=%v)\nDB:\n%s",
						iter, semName, handled2, res2.Err, res2.Holds, want, wantErr, d.String())
				}
			}
		}
	}

	if stats.Handled > 0 && stats.SessionNP > stats.FreshNP {
		t.Fatalf("%s: session layer spent %d NP calls where the fresh path spent %d on the same queries",
			semName, stats.SessionNP, stats.FreshNP)
	}
	return stats
}

// sessionRandomFormula builds a random formula over the first n atoms.
func sessionRandomFormula(rng *rand.Rand, n, depth int) *logic.Formula {
	if n == 0 {
		n = 1
	}
	if depth == 0 || rng.Intn(3) == 0 {
		a := logic.Atom(rng.Intn(n))
		if rng.Intn(2) == 0 {
			return logic.Not(logic.AtomF(a))
		}
		return logic.AtomF(a)
	}
	l := sessionRandomFormula(rng, n, depth-1)
	r := sessionRandomFormula(rng, n, depth-1)
	if rng.Intn(2) == 0 {
		return logic.And(l, r)
	}
	return logic.Or(l, r)
}
