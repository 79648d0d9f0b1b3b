package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"disjunct/internal/budget"
	"disjunct/internal/faults"
	"disjunct/internal/logic"
)

// prefixStep is one step of a prefix scenario: extend the prefix by
// add, or (add nil) make one NP call with suffix.
type prefixStep struct {
	add    logic.Clause
	suffix logic.CNF
}

// prefixScenario draws a random prefix over n variables, 3-clauses
// with a few units so that loading it propagates, and a mix of prefix
// extensions and queries with short suffixes.
func prefixScenario(rng *rand.Rand) (n int, prefix logic.CNF, steps []prefixStep) {
	n = 4 + rng.Intn(30)
	clause := func(k int) logic.Clause {
		cl := make(logic.Clause, k)
		for j := range cl {
			cl[j] = logic.MkLit(logic.Atom(rng.Intn(n)), rng.Intn(2) == 0)
		}
		return cl
	}
	prefix = randCNF(rng, n, 2+2*rng.Float64())
	for i := rng.Intn(3); i > 0; i-- {
		prefix = append(prefix, clause(1))
	}
	for i := 0; i < 12; i++ {
		if rng.Intn(3) == 0 {
			steps = append(steps, prefixStep{add: clause(1 + 2*rng.Intn(2))})
			continue
		}
		var suffix logic.CNF
		for j := rng.Intn(4); j > 0; j-- {
			suffix = append(suffix, logic.Clause{logic.MkLit(logic.Atom(rng.Intn(n)), rng.Intn(2) == 0)})
		}
		if rng.Intn(2) == 0 {
			suffix = append(suffix, clause(3))
		}
		steps = append(steps, prefixStep{suffix: suffix})
	}
	return n, prefix, steps
}

// traceCall records one NP call's answer, typed error and the
// oracle's counters after it.
func traceCall(o *NP, call func() (bool, logic.Interp)) string {
	var (
		ok  bool
		m   logic.Interp
		err error
	)
	func() {
		defer budget.Recover(&err)
		ok, m = call()
	}()
	key := "-"
	if ok {
		key = fmt.Sprintf("%x", m.Key())
	}
	return fmt.Sprintf("%v %s err=%v %v", ok, key, err, o.Counters())
}

// runPrefix plays the steps through one Prefix.
func runPrefix(o *NP, n int, prefix logic.CNF, steps []prefixStep) []string {
	p := o.Prefix(n, prefix)
	defer p.Release()
	var trace []string
	for _, st := range steps {
		if st.add != nil {
			p.Add(st.add)
			continue
		}
		trace = append(trace, traceCall(o, func() (bool, logic.Interp) { return p.Sat(st.suffix) }))
	}
	return trace
}

// runFlat plays the steps as whole-CNF Sat calls.
func runFlat(o *NP, n int, prefix logic.CNF, steps []prefixStep) []string {
	query := append(logic.CNF(nil), prefix...)
	var trace []string
	for _, st := range steps {
		if st.add != nil {
			query = append(query, st.add)
			continue
		}
		full := append(append(logic.CNF(nil), query...), st.suffix...)
		trace = append(trace, traceCall(o, func() (bool, logic.Interp) { return o.Sat(n, full) }))
	}
	return trace
}

// TestPrefixSatMatchesSat checks that Prefix.Sat is Sat on the
// concatenated CNF: the same verdicts, models and counters call by
// call, with no budget, under a seeded fault injector, and under
// NP-call, propagation and conflict budgets, where both must trip on
// the same call with the same typed error.
func TestPrefixSatMatchesSat(t *testing.T) {
	configs := []struct {
		name string
		lim  budget.Limits
		rate float64
		trip error // the cause at least one call must trip with
	}{
		{name: "plain"},
		{name: "faults", rate: 0.2, trip: faults.ErrInjectedCancel},
		{name: "np-calls", lim: budget.Limits{NPCalls: 5}, trip: budget.ErrNPCallBudget},
		{name: "propagations", lim: budget.Limits{Propagations: 150}, trip: budget.ErrPropagationBudget},
		{name: "conflicts", lim: budget.Limits{Conflicts: 4}, trip: budget.ErrConflictBudget},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			tripped := false
			for sc := 0; sc < 60; sc++ {
				n, prefix, steps := prefixScenario(rng)
				mk := func() *NP {
					o := NewNP().WithFaults(faults.NewInjector(cfg.rate, int64(sc)))
					if cfg.lim != (budget.Limits{}) {
						o.WithBudget(budget.New(context.Background(), cfg.lim))
					}
					return o
				}
				op, of := mk(), mk()
				got, want := runPrefix(op, n, prefix, steps), runFlat(of, n, prefix, steps)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("scenario %d call %d: prefix %q, flat %q", sc, i, got[i], want[i])
					}
				}
				for _, line := range got {
					tripped = tripped || cfg.trip != nil && strings.Contains(line, "err="+cfg.trip.Error())
				}
			}
			if cfg.trip != nil && !tripped {
				t.Errorf("no call tripped with %v", cfg.trip)
			}
		})
	}
}

// modelSink keeps the reference model allocation on the heap, where
// Sat's returned model lives.
var modelSink logic.Interp

// TestWarmSatAllocatesOnlyModel pins the load path's allocation
// profile: once the pooled solver is warm, Sat and Prefix.Sat allocate
// exactly what building the returned model allocates.
func TestWarmSatAllocatesOnlyModel(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled solvers at random")
	}
	const n = 40
	cnf := randCNF(rand.New(rand.NewSource(5)), n, 3.0)
	o := NewNP()
	if ok, _ := o.Sat(n, cnf); !ok {
		t.Fatal("test CNF must be satisfiable")
	}
	model := testing.AllocsPerRun(100, func() { modelSink = logic.NewInterp(n) })
	if got := testing.AllocsPerRun(100, func() { o.Sat(n, cnf) }); got != model {
		t.Errorf("warm Sat: %v allocations, want %v (the model's)", got, model)
	}
	p := o.Prefix(n, cnf)
	defer p.Release()
	suffix := logic.CNF{{logic.PosLit(0), logic.PosLit(1)}}
	p.Sat(suffix)
	if got := testing.AllocsPerRun(100, func() { p.Sat(suffix) }); got != model {
		t.Errorf("warm Prefix.Sat: %v allocations, want %v (the model's)", got, model)
	}
}
