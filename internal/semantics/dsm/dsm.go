// Package dsm implements Przymusinski's Disjunctive Stable Model
// semantics (§5.2 of the paper), generalising the stable models of
// Gelfond and Lifschitz to disjunctive databases:
//
//	DSM(DB) = {M : M ∈ MM(DB^M)}
//
// where DB^M is the Gelfond–Lifschitz reduct. Disjunctive stable
// models are minimal (classical) models of DB, and for positive DB
// (no negation) DSM(DB) = MM(DB).
//
// Complexity shape: literal and formula inference Π₂ᵖ-complete; model
// existence is trivial for positive DDBs (DSM = MM) and Σ₂ᵖ-complete
// in general (Table 2).
//
// Algorithms: stability of a candidate M is one NP-oracle call
// (minimality of M among models of DB^M — the reduct is computed in
// polynomial time, as the paper notes for the Π₂ᵖ membership proof of
// Theorem 5.11). Candidates are drawn from the minimal models of DB,
// enumerated by the iterative SAT engine.
package dsm

import (
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("DSM", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "DSM",
		Complexity: "literal/formula Πᵖ₂-complete; existence O(1) positive / Σᵖ₂-complete in general",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellSigma2},
	})
}

// Sem is the DSM semantics.
type Sem struct {
	opts core.Options
}

// New returns a DSM instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts}
}

// Name returns "DSM".
func (s *Sem) Name() string { return "DSM" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// IsStable reports whether m is a disjunctive stable model of d:
// m ∈ MM(d^m). The reduct is polynomial; the minimality check is one
// NP-oracle call.
func (s *Sem) IsStable(d *db.DB, m logic.Interp) bool {
	red := d.Reduct(m)
	if !red.Sat(m) {
		return false
	}
	eng := models.NewEngine(red, s.opts.Oracle)
	return eng.IsMinimal(m)
}

// Models enumerates DSM(DB): the minimal models of DB that pass the
// stability check. (DSM(DB) ⊆ MM(DB), so enumerating minimal models
// loses nothing.)
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	// Drain returns a trip inside the enumeration; Recover catches
	// one inside the per-model check that the yield runs.
	defer budget.Recover(&err)
	eng := models.NewEngine(d, s.opts.Oracle)
	_, err = models.Drain(eng.IterateMinimalModels(0), func(m logic.Interp) bool {
		if !s.IsStable(d, m) {
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

// HasModel decides DSM(DB) ≠ ∅ — the Σ₂ᵖ-complete cell of Table 2:
// the search over (minimal) model candidates with a one-NP-call
// stability verifier.
func (s *Sem) HasModel(d *db.DB) (bool, error) {
	if !d.HasNegation() && !d.HasIntegrityClauses() {
		return true, nil // DSM = MM on positive DBs, and MM ≠ ∅ (O(1))
	}
	found := false
	_, err := s.Models(d, 1, func(logic.Interp) bool {
		found = true
		return false
	})
	return found, err
}

// InferLiteral decides DSM(DB) ⊨ l (truth in every stable model;
// Π₂ᵖ-complete, Table 1/2).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.InferFormula(d, logic.LitF(l))
}

// InferFormula decides DSM(DB) ⊨ f: the co-search for a stable
// countermodel (Theorem 5.11's shape: guess M, verify stability with
// an NP oracle and check M ⊭ F).
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

// CheckModel reports whether m is a disjunctive stable model (the
// polynomial reduct plus one NP-oracle minimality call — the verifier
// of Theorem 5.11).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	return s.IsStable(d, m), nil
}
