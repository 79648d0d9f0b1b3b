package all_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// TestDeadlineSweep: under a 50 ms deadline, every registered semantics
// answers literal (both signs), formula and model-existence queries on
// positive, integrity and normal databases of 12 and 24 atoms within
// the deadline plus a fixed slack, and the answer is a verdict, a
// typed budget interruption, or a refusal of the database's class
// (ErrUnsupported, or ErrNotStratifiable from ICWA). A procedure whose
// super-polynomial work runs outside the oracle's budget checks answers
// late, or not at all, here. PWS, PMS and PERF are also swept on a
// 3000-atom definite cycle entered by one disjunctive fact, where an
// encoding that grows faster than n·log n, or PERF's cubic priority
// closure run without budget polls, would answer late.
func TestDeadlineSweep(t *testing.T) {
	const deadline, slack = 50 * time.Millisecond, 250 * time.Millisecond
	type class struct {
		name string
		d    *db.DB
		only []string // the semantics swept; all when empty
	}
	var classes []class
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{12, 24} {
		for _, c := range []struct {
			name string
			cfg  func(atoms, clauses int) gen.Config
		}{
			{"positive", gen.Positive},
			{"integrity", gen.WithIntegrity},
			{"normal", gen.Normal},
			{"normal-noIC", gen.NormalNoIC},
		} {
			classes = append(classes, class{fmt.Sprintf("%s n=%d", c.name, n), gen.Random(rng, c.cfg(n, 3*n/2)), nil})
		}
	}
	classes = append(classes, class{"cycle n=3000", longCycle(3000), []string{"PWS", "PMS", "PERF"}})
	for _, class := range classes {
		d, n := class.d, class.d.N()
		a, b, c := logic.AtomF(0), logic.AtomF(logic.Atom(n/2)), logic.AtomF(logic.Atom(n-1))
		f := logic.Or(logic.And(a, logic.Not(b)), logic.Implies(c, a))
		for _, name := range core.Names() {
			info, _ := core.InfoFor(name)
			if !info.Applicable(d.HasNegation(), d.HasIntegrityClauses()) || (len(class.only) > 0 && !slices.Contains(class.only, name)) {
				continue
			}
			queries := map[string]func(core.Semantics) (bool, error){
				"literal+": func(s core.Semantics) (bool, error) { return s.InferLiteral(d, logic.PosLit(1)) },
				"literal-": func(s core.Semantics) (bool, error) { return s.InferLiteral(d, logic.NegLit(1)) },
				"formula":  func(s core.Semantics) (bool, error) { return s.InferFormula(d, f) },
				"model":    func(s core.Semantics) (bool, error) { return s.HasModel(d) },
			}
			for kind, query := range queries {
				label := fmt.Sprintf("%s %s on %s", name, kind, class.name)
				o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{Deadline: deadline}))
				s, _ := core.New(name, core.Options{Oracle: o})
				done := make(chan error, 1)
				start := time.Now()
				go func() {
					_, err := query(s)
					done <- err
				}()
				select {
				case err := <-done:
					if took := time.Since(start); took > deadline+slack {
						t.Errorf("%s: answered after %v", label, took)
					}
					if err != nil && !budget.Interrupted(err) && !errors.Is(err, core.ErrUnsupported) && !errors.Is(err, core.ErrNotStratifiable) {
						t.Errorf("%s: untyped error %v", label, err)
					}
				case <-time.After(deadline + slack):
					t.Errorf("%s: no answer within %v", label, deadline+slack)
				}
			}
		}
	}
}

// longCycle is the definite cycle a_i ← a_{i+1 mod n−1} over n−1 atoms
// plus the disjunctive fact a_0 ∨ x: every atom of the cycle is derived
// when a_0 is chosen and unfounded otherwise.
func longCycle(n int) *db.DB {
	d := db.New()
	for a := 0; a < n; a++ {
		d.Voc.Intern(fmt.Sprintf("a%d", a))
	}
	for a := 0; a < n-1; a++ {
		d.AddRule([]logic.Atom{logic.Atom(a)}, []logic.Atom{logic.Atom((a + 1) % (n - 1))}, nil)
	}
	d.AddFact(0, logic.Atom(n-1))
	return d
}
