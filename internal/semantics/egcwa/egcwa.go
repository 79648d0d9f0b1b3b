// Package egcwa implements the Extended Generalized Closed World
// Assumption of Yahya and Henschen (§3.3 of the paper): DB is
// augmented by every integrity clause ¬a1 ∨ … ∨ ¬an true in all
// minimal models, and the resulting model set is exactly
//
//	EGCWA(DB) = MM(DB)
//
// — the minimal models. EGCWA is the Q = Z = ∅ case of ECWA; the
// implementation delegates to package ecwa with the full-minimisation
// partition.
//
// Complexity shape: literal and formula inference Π₂ᵖ-complete; model
// existence O(1) on positive DDBs and NP-complete with integrity
// clauses (Table 2 — the OCR of the paper preserves this cell).
package egcwa

import (
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/semantics/ecwa"
)

func init() {
	core.Register("EGCWA", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "EGCWA",
		Complexity: "literal/formula Πᵖ₂-complete; existence O(1) positive / NP with IC",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellNP},
	})
}

// Sem is the EGCWA semantics.
type Sem struct {
	inner *ecwa.Sem
}

// New returns an EGCWA instance. Any configured partition is ignored:
// EGCWA always minimises the full vocabulary.
func New(opts core.Options) *Sem {
	opts.Partition = nil
	return &Sem{inner: ecwa.New(opts)}
}

// Name returns "EGCWA".
func (s *Sem) Name() string { return "EGCWA" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.inner.Oracle() }

// InferLiteral decides MM(DB) ⊨ l (Π₂ᵖ-complete).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.inner.InferLiteral(d, l)
}

// InferFormula decides MM(DB) ⊨ f (Π₂ᵖ-complete).
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (bool, error) {
	return s.inner.InferFormula(d, f)
}

// HasModel decides MM(DB) ≠ ∅ ⟺ DB satisfiable.
func (s *Sem) HasModel(d *db.DB) (bool, error) { return s.inner.HasModel(d) }

// Models enumerates the minimal models MM(DB).
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (int, error) {
	return s.inner.Models(d, limit, yield)
}

// CheckModel reports whether m is a minimal model of d.
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	return s.inner.CheckModel(d, m)
}
