package oracle

import (
	"sync"
	"testing"

	"disjunct/internal/logic"
)

// workload returns the CNFs worker w queries: a mix of satisfiable
// chains, unsatisfiable cores (exercising SATConfl), and top-level
// conflicts (exercising the UNSAT-at-level-0 path).
func workload(w int) []struct {
	n   int
	cnf logic.CNF
} {
	a := func(v int) logic.Atom { return logic.Atom(v) }
	pos := func(v int) logic.Lit { return logic.PosLit(a(v)) }
	neg := func(v int) logic.Lit { return logic.NegLit(a(v)) }
	var out []struct {
		n   int
		cnf logic.CNF
	}
	for rep := 0; rep < 8+w; rep++ {
		// Satisfiable: implication chain.
		chain := logic.CNF{{pos(0)}}
		for v := 0; v+1 < 5; v++ {
			chain = append(chain, logic.Clause{neg(v), pos(v + 1)})
		}
		out = append(out, struct {
			n   int
			cnf logic.CNF
		}{5, chain})
		// Unsatisfiable with search: (x∨y)(x∨¬y)(¬x∨y)(¬x∨¬y).
		out = append(out, struct {
			n   int
			cnf logic.CNF
		}{2, logic.CNF{
			{pos(0), pos(1)}, {pos(0), neg(1)}, {neg(0), pos(1)}, {neg(0), neg(1)},
		}})
		// Top-level conflict: unit x, unit ¬x.
		out = append(out, struct {
			n   int
			cnf logic.CNF
		}{1, logic.CNF{{pos(0)}, {neg(0)}}})
	}
	return out
}

// TestCountersConcurrent runs N goroutines against ONE shared oracle
// and asserts the final totals equal the sum of the counters each
// worker's workload produces on a private oracle — i.e. no increment
// is lost under concurrency.
func TestCountersConcurrent(t *testing.T) {
	const workers = 8

	// Expected totals: run each worker's workload serially on its own
	// oracle and sum the counters.
	var want Counters
	for w := 0; w < workers; w++ {
		o := NewNP()
		for _, q := range workload(w) {
			o.Sat(q.n, q.cnf)
		}
		o.CountCall()
		o.CountSigma2()
		o.CountConflicts(3)
		c := o.Counters()
		want.Add(c)
	}

	shared := NewNP()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for _, q := range workload(w) {
				shared.Sat(q.n, q.cnf)
			}
			shared.CountCall()
			shared.CountSigma2()
			shared.CountConflicts(3)
		}(w)
	}
	wg.Wait()

	got := shared.Counters()
	if got != want {
		t.Fatalf("shared counters %+v != sum of per-worker counters %+v", got, want)
	}
}

// TestSatSolverRecordsTopLevelConflict covers the SatSolver satellite:
// a CNF whose clauses conflict at level 0 must bump SATConfl and
// return a dead solver.
func TestSatSolverRecordsTopLevelConflict(t *testing.T) {
	o := NewNP()
	x := logic.Atom(0)
	s, release := o.SatSolver(1, logic.CNF{{logic.PosLit(x)}, {logic.NegLit(x)}})
	defer release()
	if s.Okay() {
		t.Fatal("solver should be dead after a top-level conflict")
	}
	c := o.Counters()
	if c.NPCalls != 1 {
		t.Fatalf("NPCalls = %d, want 1", c.NPCalls)
	}
	if c.SATConfl < 1 {
		t.Fatalf("SATConfl = %d, want ≥ 1 (top-level conflict must be recorded)", c.SATConfl)
	}
}

// TestSatPoolingEquivalence checks pooled and fresh-solver paths give
// identical answers and counter deltas.
func TestSatPoolingEquivalence(t *testing.T) {
	for _, q := range workload(0) {
		pooled, fresh := NewNP(), NewNP()
		fresh.SetPooling(false)
		okP, _ := pooled.Sat(q.n, q.cnf)
		okF, _ := fresh.Sat(q.n, q.cnf)
		if okP != okF {
			t.Fatalf("pooled=%v fresh=%v on %v", okP, okF, q.cnf)
		}
		if pooled.Counters().NPCalls != fresh.Counters().NPCalls {
			t.Fatalf("NP-call mismatch pooled=%v fresh=%v", pooled.Counters(), fresh.Counters())
		}
	}
}
