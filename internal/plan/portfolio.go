package plan

import (
	"context"

	"disjunct/internal/oracle"
)

// Portfolio execution: two procedures race under one shared budget —
// the query's single budget allocation, not one per arm — with
// first-completion-wins cancellation. The first arm to return a
// definite verdict cancels the other; the loser's budget trip (it was
// interrupted mid-search by the cancellation) is discarded and never
// surfaces to the caller. Race always waits for both arms to return
// before it does, so a settled Race leaks no goroutines. Verdict
// identity between the arms is a test-asserted invariant, never
// assumed here: Race reports the first definite answer, whichever arm
// produced it.

// Outcome is one arm's result: a verdict, or a typed error (budget
// interruption, cancellation, semantic refusal).
type Outcome struct {
	Holds    bool
	Err      error
	Counters oracle.Counters
}

// Arm is one racing procedure. Race cancels the loser's ctx and then
// waits for it to return, so an arm that watches ctx (the fresh arm,
// through the oracle budget) stops early, while one that checks ctx
// only on entry runs to completion: the brute arm (Brute) cannot be
// interrupted once it starts, and a race lasts at least as long as it.
type Arm struct {
	Name string
	Run  func(ctx context.Context) Outcome
}

// RaceResult is the settled outcome of a two-arm race.
type RaceResult struct {
	// Winner names the arm whose outcome was adopted.
	Winner string
	// Out is the adopted outcome. Err is nil unless every arm failed.
	Out Outcome
	// Total sums both arms' counters — the portfolio's full account,
	// including the canceled loser's partial work, for the benchgate
	// "portfolio total ≤ worst single procedure" audit.
	Total oracle.Counters
}

// Race runs both arms concurrently under derived contexts and adopts
// the first definite (Err == nil) completion, canceling and then
// draining the other arm. If the first finisher failed, the race
// waits for the second: a definite second answer wins and the first
// arm's error never surfaces. If both fail, the outcome of arm b (by
// convention the canonical fresh procedure, whose errors carry the
// serve layer's taxonomy) is adopted.
func Race(ctx context.Context, a, b Arm) RaceResult {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type done struct {
		arm Arm
		out Outcome
	}
	ch := make(chan done, 2)
	for _, arm := range []Arm{a, b} {
		arm := arm
		go func() { ch <- done{arm, arm.Run(rctx)} }()
	}

	first := <-ch
	if first.out.Err == nil {
		cancel() // first definite completion wins: interrupt the loser
	}
	second := <-ch // settle: both arms have returned

	total := sumCounters(first.out.Counters, second.out.Counters)
	switch {
	case first.out.Err == nil:
		return RaceResult{Winner: first.arm.Name, Out: first.out, Total: total}
	case second.out.Err == nil:
		return RaceResult{Winner: second.arm.Name, Out: second.out, Total: total}
	default:
		// Both failed. Adopt arm b's outcome (the canonical procedure's
		// typed error), whichever order they finished in.
		failed := second
		if failed.arm.Name != b.Name {
			failed = first
		}
		return RaceResult{Winner: failed.arm.Name, Out: failed.out, Total: total}
	}
}

func sumCounters(x, y oracle.Counters) oracle.Counters {
	return oracle.Counters{
		NPCalls:     x.NPCalls + y.NPCalls,
		Sigma2Calls: x.Sigma2Calls + y.Sigma2Calls,
		SATConfl:    x.SATConfl + y.SATConfl,
	}
}
