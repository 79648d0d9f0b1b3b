package models

import (
	"fmt"
	"math/rand"
	"testing"

	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
)

func TestIncrementalMinimalityAgainstEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(7)))
		p, q := randomPartition(rng, n)
		part := partitionOf(n, p, q)
		eng := NewEngine(d, nil)
		inc := NewIncrementalEngine(d, nil)
		for _, m := range refsem.Models(d) {
			want := eng.IsMinimalPZ(m, part)
			got := inc.IsMinimalPZ(m, part)
			if got != want {
				t.Fatalf("iter %d: incremental IsMinimalPZ(%s)=%v, engine=%v\nDB:\n%s",
					iter, m.String(d.Voc), got, want, d.String())
			}
		}
	}
}

func TestIncrementalMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(282))
	for iter := 0; iter < 200; iter++ {
		d := gen.Random(rng, gen.WithIntegrity(3+rng.Intn(4), 1+rng.Intn(6)))
		inc := NewIncrementalEngine(d, nil)
		ok, m := inc.HasModel()
		if !ok {
			continue
		}
		min := inc.Minimize(m)
		if !d.Sat(min) || !min.SubsetOf(m) {
			t.Fatalf("iter %d: Minimize broken", iter)
		}
		// Verify against the stateless engine.
		if !NewEngine(d, nil).IsMinimal(min) {
			t.Fatalf("iter %d: incremental Minimize returned non-minimal model", iter)
		}
	}
}

func TestIncrementalQueriesDoNotInterfere(t *testing.T) {
	// Many interleaved minimality queries on one engine must agree
	// with fresh-engine answers (no residue from deactivated clauses).
	rng := rand.New(rand.NewSource(284))
	d := gen.Random(rng, gen.WithIntegrity(6, 12))
	inc := NewIncrementalEngine(d, nil)
	part := FullMin(d.N())
	all := refsem.Models(d)
	for round := 0; round < 5; round++ {
		for _, m := range all {
			want := NewEngine(d, nil).IsMinimalPZ(m, part)
			if got := inc.IsMinimalPZ(m, part); got != want {
				t.Fatalf("round %d: interference detected on %s", round, m.String(d.Voc))
			}
		}
	}
}

// The ablation of DESIGN.md §8: fresh-solver oracle vs incremental
// solver reuse, on repeated minimality checks over one database.
func BenchmarkEngineVsIncremental(b *testing.B) {
	for _, n := range []int{20, 40} {
		rng := rand.New(rand.NewSource(int64(n)))
		d := gen.Random(rng, gen.Positive(n, 3*n))
		part := FullMin(n)
		// Pre-compute a pool of models to check.
		eng := NewEngine(d, nil)
		var pool []logic.Interp
		eng.EnumerateModels(16, func(m logic.Interp) bool {
			pool = append(pool, m.Clone())
			return true
		})
		if len(pool) == 0 {
			b.Fatal("no models")
		}
		b.Run(fmt.Sprintf("fresh/n=%d", n), func(b *testing.B) {
			e := NewEngine(d, nil)
			for i := 0; i < b.N; i++ {
				e.IsMinimalPZ(pool[i%len(pool)], part)
			}
		})
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			e := NewIncrementalEngine(d, nil)
			for i := 0; i < b.N; i++ {
				e.IsMinimalPZ(pool[i%len(pool)], part)
			}
		})
	}
}

func TestIncrementalReportsConflicts(t *testing.T) {
	// The shared solver's conflict deltas must flow into the oracle's
	// SATConfl audit counter, like the fresh-solver path's do.
	rng := rand.New(rand.NewSource(286))
	d := gen.Random(rng, gen.WithIntegrity(10, 40))
	o := oracle.NewNP()
	inc := NewIncrementalEngine(d, o)
	part := FullMin(d.N())
	for x := 0; x < d.N(); x++ {
		inc.MMEntails(logic.Not(logic.AtomF(logic.Atom(x))), part)
	}
	c := o.Counters()
	if c.NPCalls == 0 {
		t.Fatalf("no NP calls recorded")
	}
	if c.SATConfl != inc.solver.Stats().Conflicts {
		t.Fatalf("oracle SATConfl=%d, solver conflicts=%d", c.SATConfl, inc.solver.Stats().Conflicts)
	}
}

func TestIncrementalUnsatDB(t *testing.T) {
	d := dbtest.MustParse("a. :- a.")
	inc := NewIncrementalEngine(d, nil)
	if ok, _ := inc.HasModel(); ok {
		t.Fatalf("unsat DB reported satisfiable")
	}
	// No minimal models: every formula is entailed vacuously.
	a := logic.AtomF(logic.Atom(0))
	if !inc.MMEntails(a, FullMin(d.N())) || !inc.MMEntails(logic.Not(a), FullMin(d.N())) {
		t.Fatalf("unsat DB: a formula and its negation not both entailed")
	}
}
