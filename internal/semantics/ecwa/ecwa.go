// Package ecwa implements the Extended Closed World Assumption of
// Gelfond, Przymusinska, and Przymusinski (§3.3), which in the finite
// propositional case coincides with Lifschitz's circumscription CIRC:
//
//	ECWA_{P;Z}(DB) = MM(DB;P;Z) = CIRC_{P;Z}(DB)
//
// Inference is truth in every (P;Z)-minimal model.
//
// Complexity shape: literal and formula inference Π₂ᵖ-complete (the
// formula column is complete here, unlike GCWA/CCWA — Theorems 3.6,
// 3.7); model existence is classical satisfiability (NP-complete with
// integrity clauses, trivial without).
package ecwa

import (
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("ECWA", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	// CIRC is the same semantics under its circumscription name.
	core.Register("CIRC", func(opts core.Options) core.Semantics {
		s := New(opts)
		s.name = "CIRC"
		return s
	})
	ecwaCell := "literal/formula Πᵖ₂-complete; existence O(1) positive / NP with IC"
	ecwaCells := core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellNP}
	core.Describe(core.Info{Name: "ECWA", Complexity: ecwaCell, Cells: ecwaCells})
	core.Describe(core.Info{Name: "CIRC", Complexity: ecwaCell, Cells: ecwaCells})
}

// Sem is the ECWA ≡ CIRC semantics.
type Sem struct {
	opts core.Options
	name string
}

// New returns an ECWA instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts, name: "ECWA"}
}

// Name returns "ECWA" (or "CIRC" when instantiated under that name).
func (s *Sem) Name() string { return s.name }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// InferLiteral decides ECWA(DB) ⊨ l: truth of l in all (P;Z)-minimal
// models. Π₂ᵖ-complete even for positive DDBs (Theorem 3.6).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.InferFormula(d, logic.LitF(l))
}

// InferFormula decides MM(DB;P;Z) ⊨ f via the minimal-model
// entailment co-search (Π₂ᵖ membership, Theorem 3.7: a guessed
// countermodel is verified minimal with one NP-oracle call).
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	eng := models.NewEngine(d, s.opts.Oracle)
	return eng.MMEntails(f, s.opts.PartitionFor(d)), nil
}

// HasModel decides MM(DB;P;Z) ≠ ∅ ⟺ DB satisfiable (every model of a
// finite propositional DB sits above some (P;Z)-minimal one): O(1) on
// positive DDBs without integrity clauses, one NP call otherwise.
func (s *Sem) HasModel(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	if !d.HasNegation() && !d.HasIntegrityClauses() {
		return true, nil // the all-true interpretation is a model
	}
	eng := models.NewEngine(d, s.opts.Oracle)
	ok, _ = eng.HasModel()
	return ok, nil
}

// Models enumerates MM(DB;P;Z) exactly — including Z-variants — by
// enumerating all models and filtering by the one-NP-call minimality
// check. Exponential in general; intended for small databases.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	// Drain returns a trip inside the enumeration; Recover catches
	// one inside the per-model check that the yield runs.
	defer budget.Recover(&err)
	eng := models.NewEngine(d, s.opts.Oracle)
	part := s.opts.PartitionFor(d)
	_, err = models.Drain(eng.IterateModels(0), func(m logic.Interp) bool {
		if !eng.IsMinimalPZ(m, part) {
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

// CheckModel reports whether m ∈ MM(DB;P;Z): one model evaluation plus
// one NP-oracle (minimality) call — the verifier of Theorem 3.7.
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	if !d.Sat(m) {
		return false, nil
	}
	eng := models.NewEngine(d, s.opts.Oracle)
	return eng.IsMinimalPZ(m, s.opts.PartitionFor(d)), nil
}

// InferFormulaWitness is InferFormula returning, on failure, a
// concrete (P;Z)-minimal countermodel — the "minimal world" in which
// the query is false.
func (s *Sem) InferFormulaWitness(d *db.DB, f *logic.Formula) (ok bool, w logic.Interp, err error) {
	defer budget.Recover(&err)
	eng := models.NewEngine(d, s.opts.Oracle)
	ok, w = eng.MMEntailsWitness(f, s.opts.PartitionFor(d))
	return ok, w, nil
}
