// Package models implements the model-theoretic machinery the paper's
// semantics are defined with: models M(DB), minimal models MM(DB), and
// (P;Z)-minimal models MM(DB;P;Z) for a partition ⟨P;Q;Z⟩ of the
// vocabulary, plus minimality checking, minimal-model enumeration, and
// the UMINSAT (unique minimal model) problem of Proposition 5.4.
//
// The minimality check is the NP-oracle workhorse: M is (P;Z)-minimal
// iff DB has no model N with N∩P ⊊ M∩P and N∩Q = M∩Q — one SAT call.
package models

import (
	"disjunct/internal/bitset"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// Partition is a partition ⟨P;Q;Z⟩ of the vocabulary: P atoms are
// minimised, Q atoms are fixed, Z atoms are allowed to vary. The paper
// writes MM(DB;P;Z); GCWA/EGCWA correspond to P = V, Q = Z = ∅.
type Partition struct {
	P *bitset.Set
	Q *bitset.Set
	Z *bitset.Set
}

// FullMin returns the partition minimising every atom (Q = Z = ∅).
func FullMin(n int) Partition {
	return Partition{
		P: bitset.New(n).Fill(),
		Q: bitset.New(n),
		Z: bitset.New(n),
	}
}

// NewPartition builds a partition from explicit atom lists; atoms not
// mentioned default to Q (fixed).
func NewPartition(n int, p, z []logic.Atom) Partition {
	part := Partition{P: bitset.New(n), Q: bitset.New(n), Z: bitset.New(n)}
	for _, a := range p {
		part.P.Set(int(a))
	}
	for _, a := range z {
		part.Z.Set(int(a))
	}
	part.Q.Fill()
	part.Q.DifferenceWith(part.P)
	part.Q.DifferenceWith(part.Z)
	return part
}

// Valid reports whether P, Q, Z indeed partition {0..n-1}.
func (p Partition) Valid() bool {
	if p.P.Intersects(p.Q) || p.P.Intersects(p.Z) || p.Q.Intersects(p.Z) {
		return false
	}
	u := p.P.Clone()
	u.UnionWith(p.Q)
	u.UnionWith(p.Z)
	return u.Count() == u.Len()
}

// Engine bundles a database with an NP oracle and caches its CNF.
type Engine struct {
	DB  *db.DB
	Ora *oracle.NP
	cnf logic.CNF
}

// NewEngine returns an engine for d using oracle o (a fresh one if nil).
func NewEngine(d *db.DB, o *oracle.NP) *Engine {
	if o == nil {
		o = oracle.NewNP()
	}
	return &Engine{DB: d, Ora: o, cnf: d.ToCNF()}
}

// NewEngineCNF returns an engine reusing an already-built clausal form
// (e.g. a compiled artifact's CNF) instead of recomputing d.ToCNF().
// The engine treats cnf as read-only (searches work on clones), so one
// CNF may back many engines concurrently.
func NewEngineCNF(d *db.DB, o *oracle.NP, cnf logic.CNF) *Engine {
	if o == nil {
		o = oracle.NewNP()
	}
	return &Engine{DB: d, Ora: o, cnf: cnf}
}

// CNF returns the database's cached clausal form.
func (e *Engine) CNF() logic.CNF { return e.cnf }

// HasModel reports whether the database is satisfiable (one NP call)
// and returns a model if so.
func (e *Engine) HasModel() (bool, logic.Interp) {
	return e.Ora.Sat(e.DB.N(), e.cnf)
}

// IsModel reports whether m satisfies the database (polynomial, no
// oracle call).
func (e *Engine) IsModel(m logic.Interp) bool { return e.DB.Sat(m) }

// IsMinimal reports whether model m is minimal: no model N ⊊ M
// (on all atoms). One NP call. The caller must ensure m is a model.
func (e *Engine) IsMinimal(m logic.Interp) bool {
	return e.IsMinimalPZ(m, FullMin(e.DB.N()))
}

// IsMinimalPZ reports whether model m is (P;Z)-minimal: there is no
// model N of DB with N∩Q = M∩Q and N∩P ⊊ M∩P. One NP call on the
// shrink query (shrinkQuery) over the database CNF.
func (e *Engine) IsMinimalPZ(m logic.Interp, part Partition) bool {
	n := e.DB.N()
	query, ok := shrinkQuery(e.cnf, m, part, n)
	if !ok {
		// M∩P is already empty: nothing can shrink.
		return true
	}
	sat, _ := e.Ora.Sat(n, query)
	return !sat
}

// shrinkQuery builds the (P;Z) shrink query for m over base:
// base ∧ (Q fixed as in m) ∧ (¬p for p ∈ P\M) ∧ (∨_{p ∈ P∩M} ¬p), whose
// models are the base models equal to m on Q with a P part strictly
// inside m's. The unit clauses follow atom order and the shrink clause
// comes last. ok is false when m∩P is empty: nothing can shrink. base
// is cloned, never modified.
func shrinkQuery(base logic.CNF, m logic.Interp, part Partition, n int) (query logic.CNF, ok bool) {
	query = logic.CloneCNF(base)
	var shrink logic.Clause
	for v := 0; v < n; v++ {
		a := logic.Atom(v)
		switch {
		case part.Q.Test(v):
			if m.Holds(a) {
				query = append(query, logic.Clause{logic.PosLit(a)})
			} else {
				query = append(query, logic.Clause{logic.NegLit(a)})
			}
		case part.P.Test(v):
			if m.Holds(a) {
				shrink = append(shrink, logic.NegLit(a))
			} else {
				query = append(query, logic.Clause{logic.NegLit(a)})
			}
		}
	}
	if len(shrink) == 0 {
		return nil, false
	}
	return append(query, shrink), true
}

// Minimize shrinks a model m to a minimal model below it by repeated
// SAT calls (each call either finds a strictly smaller model or proves
// minimality). At most |m| + 1 NP calls.
func (e *Engine) Minimize(m logic.Interp) logic.Interp {
	return e.MinimizePZ(m, FullMin(e.DB.N()))
}

// MinimizePZ shrinks m to a (P;Z)-minimal model N with N∩P ⊆ M∩P and
// N∩Q = M∩Q.
func (e *Engine) MinimizePZ(m logic.Interp, part Partition) logic.Interp {
	return e.minimizeAgainst(e.cnf, m.Clone(), part)
}

// sigSearch is the signature-blocking search over a base clause set
// (the database CNF, or a worker-pool region's query: the CNF
// strengthened by unit constraints) as a pull-based step function.
// Each step finds one base-(P;Z)-minimal signature and installs its
// blocking clause before returning, so the oracle-call sequence is
// identical whether the caller continues or stops (the clause only
// influences later steps). The base is appended to in place.
type sigSearch struct {
	e     *Engine
	query logic.CNF
	part  Partition
	done  bool
}

// step finds the next base-(P;Z)-minimal signature representative.
func (s *sigSearch) step() (logic.Interp, bool) {
	if s.done {
		return logic.Interp{}, false
	}
	n := s.e.DB.N()
	sat, m := s.e.Ora.Sat(n, s.query)
	if !sat {
		s.done = true
		return logic.Interp{}, false
	}
	min := s.e.minimizeAgainst(s.query, m, s.part)
	// Block every model with the same Q part and P part ⊇ min∩P.
	block := signatureBlock(min, s.part, n)
	if len(block) == 0 {
		s.done = true // unique signature (∅ on P, no Q): done after min
	} else {
		s.query = append(s.query, block)
	}
	return min, true
}

// signatureBlock returns the clause excluding the (⊆ on P, = on Q)
// cone of m's signature: some atom of m∩P false, or some Q atom
// different from m. An empty clause means the signature is the unique
// one (∅ on P, no Q atoms) and nothing remains to search.
func signatureBlock(m logic.Interp, part Partition, n int) logic.Clause {
	var block logic.Clause
	for v := 0; v < n; v++ {
		a := logic.Atom(v)
		switch {
		case part.P.Test(v):
			if m.Holds(a) {
				block = append(block, logic.NegLit(a))
			}
		case part.Q.Test(v):
			if m.Holds(a) {
				block = append(block, logic.NegLit(a))
			} else {
				block = append(block, logic.PosLit(a))
			}
		}
	}
	return block
}

// minimizeAgainst minimises m within the constraint set query (which
// may contain blocking clauses) — the blocking clauses only exclude
// supersets of already-yielded minimal models, so minimising within
// query still yields a model of DB minimal w.r.t. DB (any strictly
// smaller model of DB below a query-model is itself a query-model:
// blocking clauses are negative on P, hence closed under shrinking P).
func (e *Engine) minimizeAgainst(query logic.CNF, m logic.Interp, part Partition) logic.Interp {
	n := e.DB.N()
	cur := m
	for {
		q2, ok := shrinkQuery(query, cur, part, n)
		if !ok {
			return cur
		}
		sat, smaller := e.Ora.Sat(n, q2)
		if !sat {
			return cur
		}
		cur = smaller
	}
}

// MMEntails reports whether every minimal model of DB satisfies F —
// the verdict of MMEntailsWitness without the countermodel.
func (e *Engine) MMEntails(f *logic.Formula, part Partition) bool {
	ok, _ := e.MMEntailsWitness(f, part)
	return ok
}

// AtomFalseInAllMinimal reports whether atom x is false in every
// (P;Z)-minimal model of DB (the GCWA/CCWA test "MM(DB;P;Z) ⊨ ¬x"),
// via the generic minimal-model co-search.
func (e *Engine) AtomFalseInAllMinimal(x logic.Atom, part Partition) bool {
	return e.MMEntails(logic.Not(logic.AtomF(x)), part)
}

// MMEntailsWitness reports whether every (P;Z)-minimal model of DB
// satisfies F — the EGCWA/ECWA inference core, and via P=V also GCWA's
// minimal-model component — returning, when the entailment FAILS, a
// concrete countermodel: a (P;Z)-minimal model of DB violating f. The
// witness makes non-inference explainable ("here is the minimal world
// in which your formula is false"). It realises the Π₂ᵖ upper bound:
// co-search over models with one NP (minimality) call per candidate.
// Candidates are found by SAT on DB ∧ ¬F; each non-minimal candidate
// is minimised (its minimisation may satisfy F, in which case it is
// blocked and the search continues).
func (e *Engine) MMEntailsWitness(f *logic.Formula, part Partition) (bool, logic.Interp) {
	n := e.DB.N()
	voc := e.DB.Voc.Clone()
	neg := logic.TseitinNeg(f, voc)
	query := logic.CloneCNF(e.cnf)
	query = append(query, neg...)
	for {
		sat, m := e.Ora.Sat(voc.Size(), query)
		if !sat {
			return true, logic.Interp{}
		}
		// Restrict to original vocabulary.
		mv := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			mv.True.SetTo(v, m.Holds(logic.Atom(v)))
		}
		min := e.MinimizePZ(mv, part)
		if !f.Eval(min) {
			return false, min // a (P;Z)-minimal model violating F
		}
		// min satisfies F but the non-minimal candidate did not.
		// Exclude all models N ⊇ min (on P, equal on Q): they are
		// non-minimal (or Z-variants of min; Z-variants that violate F
		// must still be considered!). Z-variants of min share min's
		// P,Q signature and are (P;Z)-minimal iff min is — and min is.
		// So if some Z-variant of min violates F, the answer is false:
		// check with one SAT call before blocking.
		if !part.Z.IsEmpty() {
			zq := logic.CloneCNF(query)
			for v := 0; v < n; v++ {
				a := logic.Atom(v)
				if part.Z.Test(v) {
					continue
				}
				if min.Holds(a) {
					zq = append(zq, logic.Clause{logic.PosLit(a)})
				} else {
					zq = append(zq, logic.Clause{logic.NegLit(a)})
				}
			}
			if zsat, zm := e.Ora.Sat(voc.Size(), zq); zsat {
				wv := logic.NewInterp(n)
				for v := 0; v < n; v++ {
					wv.True.SetTo(v, zm.Holds(logic.Atom(v)))
				}
				return false, wv
			}
		}
		block := signatureBlock(min, part, n)
		if len(block) == 0 {
			return true, logic.Interp{} // unique minimal signature, already satisfies F
		}
		query = append(query, block)
	}
}

// UniqueMinimalModel decides UMINSAT: does DB have exactly one minimal
// model? (Proposition 5.4: coNP-hard; our procedure uses at most
// |V|+3 NP calls: find a model, minimise, then ask for a model not
// above it and minimise that.)
func (e *Engine) UniqueMinimalModel() (bool, logic.Interp) {
	ok, m := e.HasModel()
	if !ok {
		return false, logic.Interp{}
	}
	min := e.Minimize(m)
	// Any other minimal model is not a superset of min: require some
	// atom of min false ∨ … actually require N ⊉ min: ∨_{a∈min} ¬a.
	n := e.DB.N()
	query := logic.CloneCNF(e.cnf)
	var notAbove logic.Clause
	min.True.ForEach(func(i int) {
		notAbove = append(notAbove, logic.NegLit(logic.Atom(i)))
	})
	if len(notAbove) == 0 {
		// min = ∅ is contained in every model: unique.
		return true, min
	}
	query = append(query, notAbove)
	sat, _ := e.Ora.Sat(n, query)
	if !sat {
		return true, min
	}
	return false, min
}
