// Package gcwa implements Minker's Generalized Closed World Assumption
// (§3.1 of the paper):
//
//	GCWA(DB) = {M ∈ M(DB) : ∀x ∈ V. MM(DB) ⊨ ¬x ⇒ M ⊨ ¬x}
//
// GCWA is the Q = Z = ∅ special case of CCWA ("GCWA coincides with
// CCWA for Q = Z = ∅, hence P = V" — the paper uses this in the Δ-log
// proof sketch), so the implementation delegates to package ccwa with
// the full-minimisation partition.
//
// Complexity shape: literal inference Π₂ᵖ-complete (Theorem 3.1 —
// even for positive DDBs); formula inference Π₂ᵖ-hard, in
// P^Σ₂ᵖ[O(log n)]; model existence O(1) on positive DDBs and
// NP-complete with integrity clauses.
package gcwa

import (
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/semantics/ccwa"
)

func init() {
	core.Register("GCWA", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "GCWA",
		Complexity: "literal Πᵖ₂-complete; formula Πᵖ₂-hard, in P^Σᵖ₂[O(log n)]; existence O(1) positive / NP with IC",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellNP},
	})
}

// Sem is the GCWA semantics.
type Sem struct {
	inner *ccwa.Sem
}

// New returns a GCWA instance. Any configured partition is ignored:
// GCWA always minimises the full vocabulary.
func New(opts core.Options) *Sem {
	opts.Partition = nil // force P = V
	return &Sem{inner: ccwa.New(opts)}
}

// Name returns "GCWA".
func (s *Sem) Name() string { return "GCWA" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.inner.Oracle() }

// NegatedAtoms returns {x : MM(DB) ⊨ ¬x}, the literals GCWA adds.
func (s *Sem) NegatedAtoms(d *db.DB) []logic.Atom { return s.inner.NegatedAtoms(d) }

// InferLiteral decides GCWA(DB) ⊨ l. For negative literals this is the
// Π₂ᵖ-complete minimal-model entailment MM(DB) ⊨ ¬x of Theorem 3.1.
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.inner.InferLiteral(d, l)
}

// InferFormula decides GCWA(DB) ⊨ f.
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (bool, error) {
	return s.inner.InferFormula(d, f)
}

// InferFormulaDeltaLog decides GCWA(DB) ⊨ f with O(log n) Σ₂ᵖ oracle
// calls (the Table 1/2 upper bound for the formula column).
func (s *Sem) InferFormulaDeltaLog(d *db.DB, f *logic.Formula) (bool, error) {
	return s.inner.InferFormulaDeltaLog(d, f)
}

// HasModel decides GCWA(DB) ≠ ∅ ⟺ DB satisfiable.
func (s *Sem) HasModel(d *db.DB) (bool, error) { return s.inner.HasModel(d) }

// Models enumerates GCWA(DB).
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (int, error) {
	return s.inner.Models(d, limit, yield)
}

// CheckModel reports whether m ∈ GCWA(DB).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	return s.inner.CheckModel(d, m)
}
