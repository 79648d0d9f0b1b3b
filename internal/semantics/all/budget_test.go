package all_test

import (
	"context"
	"math/rand"
	"testing"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// TestModelsReportBudgetTrip: for every registered semantics, Models
// under an NP-call budget of k reports the trip as a typed error
// exactly when the unbudgeted enumeration needed more than k NP calls,
// completes with a nil error otherwise, and never yields a model
// outside the unbudgeted set. A Models that dropped the trip would
// make a cut-short enumeration look complete.
func TestModelsReportBudgetTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var dbs []*db.DB
	for i := 0; i < 24; i++ {
		n := 3 + rng.Intn(4)
		if i%5 == 4 {
			dbs = append(dbs, gen.RandomStratified(rng, n, 1+rng.Intn(2*n), 2))
			continue
		}
		family := []func(int, int) gen.Config{gen.Positive, gen.WithIntegrity, gen.Normal, gen.NormalNoIC}[i%5]
		dbs = append(dbs, gen.Random(rng, family(n, 1+rng.Intn(2*n))))
	}
	tripped := map[string]int{}
	for _, name := range core.Names() {
		info, _ := core.InfoFor(name)
		for i, d := range dbs {
			if !info.Applicable(d.HasNegation(), d.HasIntegrityClauses()) {
				continue
			}
			ref := oracle.NewNP()
			s, _ := core.New(name, core.Options{Oracle: ref})
			want := map[string]bool{}
			if _, err := s.Models(d, 0, func(m logic.Interp) bool {
				want[m.Key()] = true
				return true
			}); err != nil {
				continue // outside the semantics' class (ICWA needs a stratifiable DB)
			}
			need := ref.Counters().NPCalls
			for k := int64(1); k <= 3; k++ {
				o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{NPCalls: k}))
				s, _ := core.New(name, core.Options{Oracle: o})
				stray := 0
				_, err := s.Models(d, 0, func(m logic.Interp) bool {
					if !want[m.Key()] {
						stray++
					}
					return true
				})
				switch {
				case need > k && !budget.Interrupted(err):
					t.Errorf("%s db %d k=%d: unbudgeted run needs %d NP calls, budgeted err = %v", name, i, k, need, err)
				case need <= k && err != nil:
					t.Errorf("%s db %d k=%d: unbudgeted run needs %d NP calls, budgeted err = %v", name, i, k, need, err)
				}
				if need > k {
					tripped[name]++
				}
				if stray > 0 {
					t.Errorf("%s db %d k=%d: %d yielded model(s) outside the unbudgeted set", name, i, k, stray)
				}
			}
		}
	}
	// The semantics whose Models enumerate through the model engine or
	// by SAT with blocking clauses must all have met a trip, or the
	// corpus does not test them.
	for _, name := range []string{"DSM", "PERF", "ECWA", "EGCWA", "ICWA", "PWS", "PMS"} {
		if tripped[name] == 0 {
			t.Errorf("%s: no budget ever tripped; the corpus does not exercise the error path", name)
		}
	}
}
