// Package ddr implements the Disjunctive Database Rule of Ross and
// Topor (§3.2 of the paper), equivalent to the Weak GCWA of Rajasekar,
// Lobo, and Minker:
//
//	DDR(DB) = {M ∈ M(DB) : M ⊨ ¬x for every atom x not occurring
//	                        in T_DB↑ω}
//
// where T_DB↑ω is the disjunctive consequence fixpoint. DDR is defined
// for databases without negation; notably it IGNORES integrity clauses
// when computing T_DB↑ω (the paper's Example 3.1: for
// DB = {a∨b, ←a∧b, c←a∧b}, DDR(DB) ⊭ ¬c) while the models themselves
// must satisfy them.
//
// Complexity shape: negative-literal inference is polynomial on
// positive DDBs without integrity clauses (Chan's entry in Table 1 —
// zero oracle calls here: one fixpoint computation); with integrity
// clauses literal inference is coNP-complete, and formula inference is
// coNP-complete in both regimes (classical entailment from DB plus the
// polynomially computable negated-atom set).
package ddr

import (
	"disjunct/internal/bitset"
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/fixpoint"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("DDR", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Register("WGCWA", func(opts core.Options) core.Semantics {
		s := New(opts)
		s.name = "WGCWA"
		return s
	})
	ddrCell := "negative literal in P (no IC) / coNP with IC; formula coNP-complete; existence in P"
	ddrCells := core.Cells{Literal: core.CellCoNP, Formula: core.CellCoNP, Existence: core.CellP}
	core.Describe(core.Info{Name: "DDR", Complexity: ddrCell, Cells: ddrCells, NoNegation: true})
	core.Describe(core.Info{Name: "WGCWA", Complexity: ddrCell, Cells: ddrCells, NoNegation: true})
}

// Sem is the DDR ≡ WGCWA semantics.
type Sem struct {
	opts core.Options
	name string
}

// New returns a DDR instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts, name: "DDR"}
}

// Name returns "DDR" (or "WGCWA" when instantiated under that name).
func (s *Sem) Name() string { return s.name }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// OccurringAtoms returns the atoms occurring in T_DB↑ω. For the
// occurrence question the full (worst-case exponential) state is not
// needed: an atom occurs in some derivable disjunction iff it lies in
// the all-heads-enabled least fixpoint, computed in polynomial time.
// Integrity clauses and the (unsupported) negative literals are
// ignored, per the DDR definition.
func (s *Sem) OccurringAtoms(d *db.DB) *bitset.Set {
	return fixpoint.PossiblyTrue(d)
}

// closureCNF is DB ∪ {¬x : x not occurring in T_DB↑ω}.
func (s *Sem) closureCNF(d *db.DB) logic.CNF {
	occ := s.OccurringAtoms(d)
	cnf := d.ToCNF()
	for v := 0; v < d.N(); v++ {
		if !occ.Test(v) {
			cnf = append(cnf, logic.Clause{logic.NegLit(logic.Atom(v))})
		}
	}
	return cnf
}

func (s *Sem) check(d *db.DB) error {
	if d.HasNegation() {
		return core.ErrUnsupported
	}
	return nil
}

// InferLiteral decides DDR(DB) ⊨ l.
//
// On a positive DDB without integrity clauses, a negative literal ¬x
// is inferred iff x does not occur in T_DB↑ω — Chan's polynomial
// algorithm, zero oracle calls. With integrity clauses (or for
// positive literals) the question becomes classical entailment from
// the closure: one NP-oracle call (the coNP-complete cells).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	if !l.IsPos() && !d.HasIntegrityClauses() {
		occ := s.OccurringAtoms(d)
		return !occ.Test(int(l.Atom())), nil
	}
	return s.InferFormula(d, logic.LitF(l))
}

// InferFormula decides DDR(DB) ⊨ f: classical entailment from the
// closure (coNP; one NP-oracle call after the polynomial fixpoint).
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	return s.opts.Oracle.Entails(d.N(), s.closureCNF(d), f, d.Voc), nil
}

// HasModel decides DDR(DB) ≠ ∅: satisfiability of the closure. On a
// positive DDB without integrity clauses this is constantly true (the
// occurring atoms themselves form a model); with integrity clauses it
// is NP-complete.
func (s *Sem) HasModel(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.HasIntegrityClauses() {
		return true, nil
	}
	ok, _ = s.opts.Oracle.Sat(d.N(), s.closureCNF(d))
	return ok, nil
}

// Models enumerates DDR(DB): the models of the closure.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return 0, err
	}
	n := d.N()
	solver, release := s.opts.Oracle.SatSolver(n, s.closureCNF(d))
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

// CheckModel reports whether m ∈ DDR(DB): m models DB (integrity
// clauses included) and every atom not occurring in T_DB↑ω is false in
// m. Polynomial — no oracle calls.
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.Sat(m) {
		return false, nil
	}
	occ := s.OccurringAtoms(d)
	for v := 0; v < d.N(); v++ {
		if m.Holds(logic.Atom(v)) && !occ.Test(v) {
			return false, nil
		}
	}
	return true, nil
}
