package serve

import (
	"context"
	"errors"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/faults"
	"disjunct/internal/oracle"
	"disjunct/internal/plan"
	"disjunct/internal/session"
)

// execute runs one admitted query under its clamped budget. The
// procedure ladder is: warm session layer (fragment fast paths and
// warm incremental engines) first, then — when the planner routed the
// query brute — refsem construction for a tiny instance the cost model
// reads as expensive, and otherwise the fresh per-attempt path with
// bounded transient retries. Exactly one procedure answers. It
// returns the wire response, or a semantic error (ErrUnsupported /
// ErrNotStratifiable) for the handler to surface as a typed 422.
// Every finished query's measured counters feed the planner's cost
// model.
func (s *Server) execute(reqCtx context.Context, kind string, pq parsedQuery) (QueryResponse, error) {
	seq := s.reqSeq.Add(1)

	// A query budget must observe both the client connection and the
	// server's drain-deadline cancellation.
	ctx, cancel := context.WithCancelCause(reqCtx)
	defer cancel(nil)
	stop := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stop()
	// AfterFunc runs asynchronously; if the drain deadline has already
	// fired, cancel synchronously so even an instant query cannot race
	// past a forced drain and report a complete verdict.
	if s.baseCtx.Err() != nil {
		cancel(context.Cause(s.baseCtx))
	}

	// Warm session layer first: fragment fast paths (zero NP calls)
	// and warm incremental engines for the minimal-model family.
	// Unhandled queries fall through to the planner / fresh path.
	// The session budget derives from the same chained context, so
	// drain cancellation reaches warm solves as typed interruptions;
	// fault injection never reaches the warm path (its engine solves
	// directly, not through the one-shot oracle hook), so session
	// interruptions are always budget-class and never retried.
	if s.sessions != nil && pq.comp != nil {
		if resp, handled := s.executeSession(ctx, kind, pq); handled {
			s.observeCost(pq, resp)
			return resp, nil
		}
	}

	if s.planner != nil && pq.planned && pq.dec.Proc == plan.ProcBrute {
		if resp, ok := s.executeBrute(ctx, kind, pq); ok {
			s.observeCost(pq, resp)
			return resp, nil
		}
		// Ineligible after all (or already canceled): fresh path.
	}

	resp, semErr := s.freshLoop(ctx, kind, pq, seq)
	if semErr == nil {
		s.observeCost(pq, resp)
	}
	return resp, semErr
}

// freshLoop is the fresh execution path: per-attempt budgets and
// oracles, retrying transient-class oracle failures a bounded number
// of times with seeded full-jitter backoff.
//
// Each attempt gets a fresh budget and oracle: counters in the
// response are exactly the work of the attempt that produced the
// verdict, and an interrupted attempt can never leak partial state
// into the next.
func (s *Server) freshLoop(ctx context.Context, kind string, pq parsedQuery, seq uint64) (QueryResponse, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		b := budget.New(ctx, pq.eff)
		o := oracle.NewNP().WithBudget(b)
		if s.cfg.FaultRate > 0 {
			// Salted per (request, attempt): a retry re-rolls the fault
			// sequence instead of deterministically re-failing.
			o.WithFaults(faults.NewInjector(s.cfg.FaultRate, s.cfg.FaultSeed+int64(seq)*1000003+int64(attempt)))
		}
		sem, ok := core.New(pq.semName, core.Options{Oracle: o})
		if !ok {
			// Unreachable: decodeQuery checked the registry.
			return QueryResponse{}, core.ErrUnsupported
		}
		var holds bool
		var err error
		switch kind {
		case "literal":
			holds, err = sem.InferLiteral(pq.d, pq.lit)
		case "formula":
			holds, err = sem.InferFormula(pq.d, pq.formula)
		default: // "model"
			holds, err = sem.HasModel(pq.d)
		}
		v, semErr := core.VerdictOf(holds, err)
		if semErr != nil {
			return QueryResponse{}, semErr
		}
		if v.Incomplete && errors.Is(v.Cause, faults.ErrTransient) &&
			attempt < s.cfg.RetryMax && ctx.Err() == nil && !s.draining.Load() {
			s.stats.retries.Add(1)
			time.Sleep(faults.FullJitter(uint64(seq)*0x9e3779b97f4a7c15+uint64(s.cfg.FaultSeed), attempt))
			continue
		}
		return QueryResponse{
			Semantics:  pq.semName,
			Kind:       kind,
			Verdict:    VerdictString(v),
			Holds:      v.Holds,
			Incomplete: v.Incomplete,
			CauseCode:  CauseCode(v.Cause),
			Cause:      causeString(v.Cause),
			Counters:   CountersFrom(o.Counters()),
			Limits:     LimitsFrom(pq.eff),
			Retries:    attempt,
			SolveMS:    float64(time.Since(start)) / float64(time.Millisecond),
		}, nil
	}
}

// executeBrute answers a tiny instance by explicit refsem model-set
// construction — no oracle, no search, a definite verdict in
// microseconds. ok is false when the pair turns out ineligible (the
// caller falls back to the fresh path).
func (s *Server) executeBrute(ctx context.Context, kind string, pq parsedQuery) (QueryResponse, bool) {
	start := time.Now()
	holds, ok := plan.Brute(ctx, pq.comp, pq.semName, sessionKind(kind), pq.lit, pq.formula, s.planner.BruteMaxAtoms())
	if !ok {
		return QueryResponse{}, false
	}
	v, _ := core.VerdictOf(holds, nil)
	return QueryResponse{
		Semantics: pq.semName,
		Kind:      kind,
		Verdict:   VerdictString(v),
		Holds:     holds,
		Counters:  CountersFrom(oracle.Counters{}),
		Limits:    LimitsFrom(pq.eff),
		Path:      "brute",
		SolveMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}, true
}

// observeCost feeds one finished query's measured counters into the
// planner's cost model — complete and incomplete alike: the cost paid
// is real either way, and a query that keeps tripping its budget
// should read as expensive.
func (s *Server) observeCost(pq parsedQuery, resp QueryResponse) {
	if s.planner == nil || pq.comp == nil {
		return
	}
	s.planner.Observe(pq.comp.Raw, pq.semName, plan.Cost{
		NPCalls:  resp.Counters.NPCalls,
		SATConfl: resp.Counters.SATConfl,
		Micros:   int64(resp.SolveMS * 1000),
	})
}

// executeSession offers one query to the session layer's fast path
// and warm sessions (the handler read the verdict memo before
// planning). The boolean reports whether the layer handled it; false
// sends the caller down the fresh path. A handled query's response
// carries the session's own counters (zero on the fast path) and its
// route in Path.
func (s *Server) executeSession(ctx context.Context, kind string, pq parsedQuery) (QueryResponse, bool) {
	start := time.Now()
	res, handled := s.sessions.Solve(ctx, pq.comp, pq.sessionRequest(kind, budget.New(ctx, pq.eff)))
	if !handled {
		return QueryResponse{}, false
	}
	return sessionResponse(kind, pq, res, start), true
}

// sessionResponse maps a session-layer Result onto the wire shape.
// res.Err is always a typed budget interruption (the layer never
// handles queries its semantics would reject), so VerdictOf can only
// yield a verdict here, never a semantic error.
func sessionResponse(kind string, pq parsedQuery, res session.Result, start time.Time) QueryResponse {
	v, _ := core.VerdictOf(res.Holds, res.Err)
	return QueryResponse{
		Semantics:  pq.semName,
		Kind:       kind,
		Verdict:    VerdictString(v),
		Holds:      v.Holds,
		Incomplete: v.Incomplete,
		CauseCode:  CauseCode(v.Cause),
		Cause:      causeString(v.Cause),
		Counters:   CountersFrom(res.Counters),
		Limits:     LimitsFrom(pq.eff),
		Path:       res.Path,
		SolveMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
}

func causeString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
