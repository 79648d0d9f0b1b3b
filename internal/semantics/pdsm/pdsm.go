// Package pdsm implements Przymusinski's Partial Disjunctive Stable
// Model semantics (§5.2 of the paper), the 3-valued generalisation of
// DSM extending the well-founded semantics: truth values 1 (true),
// 0.5 (undefined), 0 (false).
//
// For a partial interpretation M, the 3-valued reduct DB^M replaces
// every negative body literal ¬c by the constant 1 − M(c); M is a
// partial stable model iff M is a minimal 3-valued model of DB^M in
// the pointwise truth ordering (false < undefined < true).
//
// A clause a1∨…∨an ← body is 3-valued-satisfied when
// max(val(ai)) ≥ min(val(body)); an integrity clause (empty head)
// requires min(val(body)) = 0.
//
// Complexity shape: identical to DSM (the paper: "Summarizing, we
// obtain the same complexity results for PDSM as for DSM") — literal
// and formula inference Π₂ᵖ-complete, model existence Σ₂ᵖ-complete
// (the lower bound holding even without integrity clauses).
//
// Algorithms: every partial stable model p is a minimal 3-valued model
// of DB itself, since a q ≤ p with q ⊨₃ DB also has q ⊨₃ DB^p (1−p(c) ≤
// 1−q(c)). With t_a ("a = 1") and u_a ("a ≥ ½") as atoms, MM₃(DB) is the
// set of minimal models of a positive 2n-atom database (translate),
// enumerated by the minimal-model engine as for DSM. Each candidate is
// verified by one NP-oracle call on the same encoding of the 3-valued
// reduct, skipped without negation, where DB^p = DB.
//
// For the generic core.Semantics interface, Models yields the total
// partial stable models (which coincide with DSM(DB)); the partial
// models are exposed through PartialModels, and inference is 3-valued:
// a formula is inferred iff it evaluates to 1 in every partial stable
// model.
package pdsm

import (
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("PDSM", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "PDSM",
		Complexity: "literal/formula Πᵖ₂-complete; existence Σᵖ₂-complete (even without IC)",
		Cells:      core.Cells{Literal: core.CellPi2, Formula: core.CellPi2, Existence: core.CellSigma2},
	})
}

// Sem is the PDSM semantics.
type Sem struct {
	opts core.Options
}

// New returns a PDSM instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts}
}

// Name returns "PDSM".
func (s *Sem) Name() string { return "PDSM" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// bodyVal3 returns the 3-valued body value of clause c under p:
// min over positive body atoms and the constants 1−p(c) for negative
// body atoms.
func bodyVal3(c db.Clause, p logic.Partial) logic.TruthValue {
	v := logic.True
	for _, b := range c.PosBody {
		if w := p.Value(b); w < v {
			v = w
		}
	}
	for _, cn := range c.NegBody {
		if w := logic.True - p.Value(cn); w < v {
			v = w
		}
	}
	return v
}

func headVal3(c db.Clause, p logic.Partial) logic.TruthValue {
	v := logic.False
	for _, h := range c.Head {
		if w := p.Value(h); w > v {
			v = w
		}
	}
	return v
}

// Sat3 reports whether p is a 3-valued model of d:
// val(head) ≥ val(body) for every clause (empty head has value 0).
// Since DB^p freezes each ¬c at 1 − p(c), this is also p ⊨₃ DB^p.
func Sat3(d *db.DB, p logic.Partial) bool {
	for _, c := range d.Clauses {
		if headVal3(c, p) < bodyVal3(c, p) {
			return false
		}
	}
	return true
}

// IsPartialStable reports whether p is a partial stable model of d:
// p ⊨₃ DB^p and no 3-valued model of DB^p lies strictly below p in
// the truth ordering. The minimality test is one NP-oracle call.
func (s *Sem) IsPartialStable(d *db.DB, p logic.Partial) bool {
	return Sat3(d, p) && !newReductCheck(s.opts.Oracle, d).hasSmallerModel(p)
}

// reductCheck asks, for one database and many candidates p, whether
// some 3-valued model q of DB^p satisfies q ≤ p pointwise and q ≠ p —
// a single SAT query over the Boolean encoding t_a ("a is true") and
// u_a ("a is at least undefined"), with t_a = atom a and u_a = atom
// n+a. The literal buffer and the CNF are reused across candidates,
// which is safe because the oracle copies the clauses into its solver;
// both are sized for the largest query up front, so building a query
// allocates nothing.
type reductCheck struct {
	o    *oracle.NP
	d    *db.DB
	lits []logic.Lit
	cnf  logic.CNF
}

func newReductCheck(o *oracle.NP, d *db.DB) *reductCheck {
	n := d.N()
	// Coherence 2n literals, unit bounds plus diff at most 2n.
	nLits := 4 * n
	for _, c := range d.Clauses {
		nLits += 2 * (len(c.PosBody) + len(c.Head))
	}
	return &reductCheck{
		o:    o,
		d:    d,
		lits: make([]logic.Lit, 0, nLits),
		cnf:  make(logic.CNF, 0, 2*n+2*len(d.Clauses)+1),
	}
}

// endClause closes the clause made of the literals appended since
// start and returns the start of the next one.
func (r *reductCheck) endClause(start int) int {
	end := len(r.lits)
	r.cnf = append(r.cnf, logic.Clause(r.lits[start:end:end]))
	return end
}

// hasSmallerModel builds the query for p — coherence clauses, the
// level-½ and level-1 clause of each database clause, the unit bounds
// q ≤ p, then the clause q ≠ p — and runs it as one NP call. The
// all-false p has nothing below it and costs no call.
func (r *reductCheck) hasSmallerModel(p logic.Partial) bool {
	n := r.d.N()
	t := func(a logic.Atom) logic.Atom { return a }
	u := func(a logic.Atom) logic.Atom { return logic.Atom(n) + a }
	r.lits, r.cnf = r.lits[:0], r.cnf[:0]
	start := 0
	// Coherence: t_a → u_a.
	for v := 0; v < n; v++ {
		a := logic.Atom(v)
		r.lits = append(r.lits, logic.NegLit(t(a)), logic.PosLit(u(a)))
		start = r.endClause(start)
	}
	// Reduct clauses at both levels.
	for _, c := range r.d.Clauses {
		cmin := logic.True
		for _, cn := range c.NegBody {
			if w := logic.True - p.Value(cn); w < cmin {
				cmin = w
			}
		}
		// Level ½: if all constants ≥ ½ then (∧ u_b) → (∨ u_h).
		if cmin >= logic.Undefined {
			for _, b := range c.PosBody {
				r.lits = append(r.lits, logic.NegLit(u(b)))
			}
			for _, h := range c.Head {
				r.lits = append(r.lits, logic.PosLit(u(h)))
			}
			start = r.endClause(start)
		}
		// Level 1: if all constants are 1 then (∧ t_b) → (∨ t_h).
		if cmin == logic.True {
			for _, b := range c.PosBody {
				r.lits = append(r.lits, logic.NegLit(t(b)))
			}
			for _, h := range c.Head {
				r.lits = append(r.lits, logic.PosLit(t(h)))
			}
			start = r.endClause(start)
		}
	}
	// q ≤ p pointwise.
	for v := 0; v < n; v++ {
		a := logic.Atom(v)
		switch p.Value(a) {
		case logic.False:
			r.lits = append(r.lits, logic.NegLit(u(a)))
			start = r.endClause(start)
		case logic.Undefined:
			r.lits = append(r.lits, logic.NegLit(t(a)))
			start = r.endClause(start)
		}
	}
	// q ≠ p: some undefined atom drops to false or some true atom
	// drops below true.
	for v := 0; v < n; v++ {
		a := logic.Atom(v)
		switch p.Value(a) {
		case logic.Undefined:
			r.lits = append(r.lits, logic.NegLit(u(a)))
		case logic.True:
			r.lits = append(r.lits, logic.NegLit(t(a)))
		}
	}
	if len(r.lits) == start {
		return false // p is the all-false interpretation: nothing below
	}
	r.endClause(start)
	sat, _ := r.o.Sat(2*n, r.cnf)
	return sat
}

// translate writes DB as a positive CNF over t_a = atom a and u_a =
// atom n+a whose models are the 3-valued models of DB and whose subset
// order is the truth order: u_a ← t_a for each atom, and the level-½
// clause u_H ∨ t_C ← u_B and level-1 clause t_H ∨ u_C ← t_B for each
// clause H ← B, ¬C, as capped windows of one literal slab.
func translate(d *db.DB) logic.CNF {
	n := logic.Atom(d.N())
	total := 2 * int(n)
	for _, c := range d.Clauses {
		total += 2 * (len(c.Head) + len(c.PosBody) + len(c.NegBody))
	}
	lits := make([]logic.Lit, 0, total)
	cnf := make(logic.CNF, 0, int(n)+2*len(d.Clauses))
	clause := func(start int) { cnf = append(cnf, lits[start:len(lits):len(lits)]) }
	for a := logic.Atom(0); a < n; a++ {
		lits = append(lits, logic.NegLit(a), logic.PosLit(n+a))
		clause(len(lits) - 2)
	}
	for _, c := range d.Clauses {
		// Level ½ (hi = n) pairs u_H, u_B with t_C; level 1 the reverse.
		for _, hi := range [2]logic.Atom{n, 0} {
			start, lo := len(lits), n-hi
			for _, h := range c.Head {
				lits = append(lits, logic.PosLit(hi+h))
			}
			for _, cn := range c.NegBody {
				lits = append(lits, logic.PosLit(lo+cn))
			}
			for _, b := range c.PosBody {
				lits = append(lits, logic.NegLit(hi+b))
			}
			clause(start)
		}
	}
	return cnf
}

// PartialModels enumerates the partial stable models of d: the minimal
// models of translate(d) that pass the reduct check. limit ≤ 0 means
// unlimited. Returns the count.
func (s *Sem) PartialModels(d *db.DB, limit int, yield func(logic.Partial) bool) (count int, err error) {
	// Drain returns a trip in the enumeration, Recover one in the check.
	defer budget.Recover(&err)
	n := d.N()
	var r *reductCheck
	if d.HasNegation() {
		r = newReductCheck(s.opts.Oracle, d)
	}
	eng := models.NewEngineCNF(2*n, s.opts.Oracle, translate(d))
	_, err = models.Drain(eng.IterateMinimalModels(0), func(m logic.Interp) bool {
		// t_a and u_a each raise a by one level (t_a → u_a).
		p := logic.NewPartial(n)
		m.True.ForEach(func(i int) {
			a := logic.Atom(i % n)
			p.SetValue(a, p.Value(a)+1)
		})
		if r != nil && r.hasSmallerModel(p) {
			return true
		}
		count++
		if !yield(p) {
			return false
		}
		return limit <= 0 || count < limit
	})
	return count, err
}

// HasModel decides PDSM(DB) ≠ ∅ (Σ₂ᵖ-complete in general; O(1) on
// positive databases, where PDSM coincides with DSM = MM ≠ ∅).
func (s *Sem) HasModel(d *db.DB) (bool, error) {
	if !d.HasNegation() && !d.HasIntegrityClauses() {
		return true, nil
	}
	found := false
	_, err := s.PartialModels(d, 1, func(logic.Partial) bool {
		found = true
		return false
	})
	return found, err
}

// InferFormula decides PDSM(DB) ⊨ f: f evaluates to true (1) under
// 3-valued Kleene evaluation in every partial stable model.
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (bool, error) {
	holds := true
	_, err := s.PartialModels(d, 0, func(p logic.Partial) bool {
		if f.Eval3(p) != logic.True {
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

// InferLiteral decides PDSM(DB) ⊨ l.
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.InferFormula(d, logic.LitF(l))
}

// Models yields the total partial stable models as two-valued
// interpretations; these coincide with the disjunctive stable models.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (int, error) {
	count := 0
	_, err := s.PartialModels(d, 0, func(p logic.Partial) bool {
		if !p.IsTotal() {
			return true
		}
		count++
		if !yield(p.Total()) {
			return false
		}
		return limit <= 0 || count < limit
	})
	return count, err
}

// CheckModel reports whether the TOTAL interpretation m is a partial
// stable model (total partial stable models = disjunctive stable
// models).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	p := logic.NewPartial(d.N())
	for v := 0; v < d.N(); v++ {
		if m.Holds(logic.Atom(v)) {
			p.SetValue(logic.Atom(v), logic.True)
		}
	}
	return s.IsPartialStable(d, p), nil
}
