// Package perf implements Przymusinski's Perfect Model Semantics
// (§5.1 of the paper), defined for disjunctive normal databases
// without integrity clauses.
//
// The priority relation < on atoms is derived from the clause
// structure (package strat); a model N is *preferable* to a model M
// (N ≺ M) iff N ≠ M and for every atom a ∈ N∖M there is an atom
// b ∈ M∖N with a < b. M is perfect iff no model of DB is preferable
// to it. Preferability generalises ⊊ (if N ⊊ M the condition is
// vacuous), so perfect models are minimal models.
//
// Complexity shape: literal and formula inference Π₂ᵖ-complete; model
// existence Σ₂ᵖ-complete (Table 2; for positive databases PERF = MM
// and existence is trivial). The perfection check for a candidate M —
// "no model is preferable to M" — is a single NP-oracle call (the
// paper's proof device: "M is a perfect model of DB iff DB′ has no
// model").
package perf

import (
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/strat"
)

func init() {
	core.Register("PERF", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "PERF",
		Complexity: "literal/formula Πᵖ₂-complete; existence Σᵖ₂-complete (O(1) positive)",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellSigma2},
		NoIC:       true,
	})
}

// Sem is the PERF semantics.
type Sem struct {
	opts core.Options
}

// New returns a PERF instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts}
}

// Name returns "PERF".
func (s *Sem) Name() string { return "PERF" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

func (s *Sem) check(d *db.DB) error {
	if d.HasIntegrityClauses() {
		return core.ErrUnsupported // PERF is defined without integrity clauses
	}
	return nil
}

// IsPerfect reports whether model m is perfect: no model of d is
// preferable to m. One NP-oracle call on DB′ = DB ∧ "N ≺ m".
//
// The preferability condition is encoded over the candidate N's
// variables: N is a model of DB, N ≠ m, and for every atom a ∉ m:
// N_a → ∨{¬N_b : b ∈ m, a < b} (if a enters, some higher-priority
// atom of m must leave).
func (s *Sem) IsPerfect(d *db.DB, m logic.Interp, pri *strat.Priority) bool {
	if pri == nil {
		pri = strat.NewPriority(d, s.opts.Oracle.Budget())
	}
	n := d.N()
	cnf := d.ToCNF()
	// N ≠ m.
	var diff logic.Clause
	for v := 0; v < n; v++ {
		if m.Holds(logic.Atom(v)) {
			diff = append(diff, logic.NegLit(logic.Atom(v)))
		} else {
			diff = append(diff, logic.PosLit(logic.Atom(v)))
		}
	}
	cnf = append(cnf, diff)
	// Preference implication for every atom outside m.
	for a := 0; a < n; a++ {
		if m.Holds(logic.Atom(a)) {
			continue
		}
		cl := logic.Clause{logic.NegLit(logic.Atom(a))}
		for b := 0; b < n; b++ {
			if m.Holds(logic.Atom(b)) && pri.Less(a, b) {
				cl = append(cl, logic.NegLit(logic.Atom(b)))
			}
		}
		cnf = append(cnf, cl)
	}
	sat, _ := s.opts.Oracle.Sat(n, cnf)
	return !sat
}

// Models enumerates PERF(DB). Perfect models are minimal, so the
// candidates are MM(DB), each checked with one NP call.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	// Drain returns a trip inside the enumeration; Recover catches
	// one inside the per-model check that the yield runs.
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return 0, err
	}
	pri := strat.NewPriority(d, s.opts.Oracle.Budget())
	eng := models.NewEngine(d, s.opts.Oracle)
	_, err = models.Drain(eng.IterateMinimalModels(0), func(m logic.Interp) bool {
		if !s.IsPerfect(d, m, pri) {
			return true
		}
		count++
		if !yield(m) {
			return false
		}
		return limit <= 0 || count < limit
	})
	return count, err
}

// HasModel decides PERF(DB) ≠ ∅ — the Σ₂ᵖ-complete cell: search over
// minimal-model candidates with the one-NP-call perfection verifier.
func (s *Sem) HasModel(d *db.DB) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.HasNegation() {
		return true, nil // PERF = MM on positive DBs, and MM ≠ ∅ (O(1))
	}
	found := false
	_, err := s.Models(d, 1, func(logic.Interp) bool {
		found = true
		return false
	})
	return found, err
}

// InferLiteral decides PERF(DB) ⊨ l (Π₂ᵖ-complete).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.InferFormula(d, logic.LitF(l))
}

// InferFormula decides PERF(DB) ⊨ f: truth in every perfect model.
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (bool, error) {
	holds := true
	_, err := s.Models(d, 0, func(m logic.Interp) bool {
		if !f.Eval(m) {
			holds = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return holds, nil
}

// CheckModel reports whether m is a perfect model: one model
// evaluation plus one NP-oracle preferability call (the paper's
// "M is a perfect model of DB iff DB′ has no model").
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.Sat(m) {
		return false, nil
	}
	return s.IsPerfect(d, m, nil), nil
}
