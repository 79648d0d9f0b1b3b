// Package ccwa implements the Careful Closed World Assumption of
// Gelfond and Przymusinska (§3.1 of the paper):
//
//	CCWA(DB) = {M ∈ M(DB) : ∀x ∈ P. MM(DB;P;Z) ⊨ ¬x ⇒ M ⊨ ¬x}
//
// for a partition ⟨P;Q;Z⟩ of the vocabulary. For Q = Z = ∅ (the
// default when no partition is configured) CCWA coincides with GCWA;
// package gcwa delegates here.
//
// Complexity shape (Tables 1 and 2): literal inference Π₂ᵖ-complete;
// formula inference Π₂ᵖ-hard and in P^Σ₂ᵖ[O(log n)]; model existence
// trivial for positive DDBs and NP-complete with integrity clauses.
// The Δ-log upper bound is realised by InferFormulaDeltaLog, which
// performs binary search with O(log |P|) Σ₂ᵖ-oracle calls (the method
// of Eiter–Gottlob [7] cited in the paper's proof sketch).
package ccwa

import (
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("CCWA", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "CCWA",
		Complexity: "literal Πᵖ₂-complete; formula Πᵖ₂-hard, in P^Σᵖ₂[O(log n)]; existence O(1) positive / NP with IC",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellNP},
	})
}

// Sem is the CCWA semantics.
type Sem struct {
	opts core.Options
}

// New returns a CCWA instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts}
}

// Name returns "CCWA".
func (s *Sem) Name() string { return "CCWA" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// engine builds a model engine for d.
func (s *Sem) engine(d *db.DB) (*models.Engine, models.Partition) {
	return models.NewEngine(d, s.opts.Oracle), s.opts.PartitionFor(d)
}

// NegatedAtoms computes the CCWA closure literals: the set
// N = {x ∈ P : MM(DB;P;Z) ⊨ ¬x}. Each atom costs one minimal-model
// entailment query.
func (s *Sem) NegatedAtoms(d *db.DB) []logic.Atom {
	eng, part := s.engine(d)
	var out []logic.Atom
	for v := 0; v < d.N(); v++ {
		if !part.P.Test(v) {
			continue
		}
		if eng.AtomFalseInAllMinimal(logic.Atom(v), part) {
			out = append(out, logic.Atom(v))
		}
	}
	return out
}

// closureCNF returns the CNF of DB ∪ {¬x : x ∈ N}, whose classical
// models are exactly CCWA(DB).
func (s *Sem) closureCNF(d *db.DB) logic.CNF {
	cnf := d.ToCNF()
	for _, a := range s.NegatedAtoms(d) {
		cnf = append(cnf, logic.Clause{logic.NegLit(a)})
	}
	return cnf
}

// InferLiteral decides CCWA(DB) ⊨ l.
//
// Negative literal ¬x with x ∈ P: equivalent to MM(DB;P;Z) ⊨ ¬x
// (every minimal model is a CCWA model, and the closure adds exactly
// the negations holding in all minimal models) — the Π₂ᵖ-complete
// core, decided by one minimal-model entailment co-search.
// Other literals: classical entailment from the closure.
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (ok bool, err error) {
	defer budget.Recover(&err)
	eng, part := s.engine(d)
	if !l.IsPos() && part.P.Test(int(l.Atom())) {
		// CCWA ⊨ ¬x ⟺ MM(DB;P;Z) ⊨ ¬x, provided DB is consistent;
		// an inconsistent DB entails everything.
		if ok, _ := eng.HasModel(); !ok {
			return true, nil
		}
		return eng.AtomFalseInAllMinimal(l.Atom(), part), nil
	}
	return s.InferFormula(d, logic.LitF(l))
}

// InferFormula decides CCWA(DB) ⊨ f by computing the closure and one
// classical entailment check.
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	cnf := s.closureCNF(d)
	return s.opts.Oracle.Entails(d.N(), cnf, f, d.Voc), nil
}

// HasModel decides CCWA(DB) ≠ ∅. Since every (P;Z)-minimal model of a
// consistent DB satisfies the closure, this is exactly classical
// satisfiability: O(1) — constantly true, zero oracle calls — on
// positive DDBs without integrity clauses (Table 1), one NP call
// otherwise (the NP-complete cell of Table 2).
func (s *Sem) HasModel(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	if !d.HasNegation() && !d.HasIntegrityClauses() {
		return true, nil // the all-true interpretation is a model
	}
	eng, _ := s.engine(d)
	ok, _ = eng.HasModel()
	return ok, nil
}

// Models enumerates CCWA(DB) — the classical models of the closure.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	defer budget.Recover(&err)
	cnf := s.closureCNF(d)
	n := d.N()
	solver, release := s.opts.Oracle.SatSolver(n, cnf)
	defer release()
	solver.EnumerateModels(n, limit, func(model []bool) bool {
		s.opts.Oracle.CountCall()
		m := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			m.True.SetTo(v, model[v])
		}
		count++
		return yield(m)
	})
	oracle.CheckEnumerate(solver)
	return count, nil
}

// CheckModel reports whether m ∈ CCWA(DB): m must be a model of DB and
// avoid every atom of the CCWA closure. (Model checking is the
// verifier inside the Π₂ᵖ membership arguments; here each closure atom
// costs one minimal-model entailment query, and only atoms true in m
// need checking.)
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	if !d.Sat(m) {
		return false, nil
	}
	eng, part := s.engine(d)
	for v := 0; v < d.N(); v++ {
		if !part.P.Test(v) || !m.Holds(logic.Atom(v)) {
			continue
		}
		// x ∈ M∩P must be possibly true in some (P;Z)-minimal model.
		if eng.AtomFalseInAllMinimal(logic.Atom(v), part) {
			return false, nil
		}
	}
	return true, nil
}
