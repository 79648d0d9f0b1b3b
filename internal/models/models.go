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

// Engine bundles a clausal form over n variables with an NP oracle.
// DB is the database the clauses came from; an engine built by
// NewEngineCNF has none, and then only the searches that read the
// clauses alone (model and minimal-model enumeration, minimality,
// minimisation, UMINSAT) apply — IsModel and the entailment tests
// need the database.
type Engine struct {
	DB  *db.DB
	Ora *oracle.NP
	n   int
	cnf logic.CNF
}

// NewEngine returns an engine for d using oracle o (a fresh one if nil).
func NewEngine(d *db.DB, o *oracle.NP) *Engine {
	if o == nil {
		o = oracle.NewNP()
	}
	return &Engine{DB: d, Ora: o, n: d.N(), cnf: d.ToCNF()}
}

// NewEngineCNF returns an engine over an already-built clausal form on
// n variables (e.g. a compiled artifact's CNF, or a translation that
// has no database of its own). The engine never modifies cnf (searches
// load it into oracle prefixes and add their own clauses there), so
// one CNF may back many engines concurrently.
func NewEngineCNF(n int, o *oracle.NP, cnf logic.CNF) *Engine {
	if o == nil {
		o = oracle.NewNP()
	}
	return &Engine{Ora: o, n: n, cnf: cnf}
}

// CNF returns the database's cached clausal form.
func (e *Engine) CNF() logic.CNF { return e.cnf }

// HasModel reports whether the database is satisfiable (one NP call)
// and returns a model if so.
func (e *Engine) HasModel() (bool, logic.Interp) {
	return e.Ora.Sat(e.n, e.cnf)
}

// IsModel reports whether m satisfies the database (polynomial, no
// oracle call).
func (e *Engine) IsModel(m logic.Interp) bool { return e.DB.Sat(m) }

// IsMinimal reports whether model m is minimal: no model N ⊊ M
// (on all atoms). One NP call. The caller must ensure m is a model.
func (e *Engine) IsMinimal(m logic.Interp) bool {
	return e.IsMinimalPZ(m, FullMin(e.n))
}

// IsMinimalPZ reports whether model m is (P;Z)-minimal: there is no
// model N of DB with N∩Q = M∩Q and N∩P ⊊ M∩P. One NP call on the
// shrink query (suffix.shrink) over the database CNF.
func (e *Engine) IsMinimalPZ(m logic.Interp, part Partition) bool {
	p := e.Ora.Prefix(e.n, e.cnf)
	defer p.Release()
	return e.isMinimalIn(p, new(suffix), m, part)
}

// isMinimalIn is IsMinimalPZ against the loaded database prefix p,
// building the query suffix in buf.
func (e *Engine) isMinimalIn(p *oracle.Prefix, buf *suffix, m logic.Interp, part Partition) bool {
	query, ok := buf.shrink(m, part, e.n)
	if !ok {
		// M∩P is already empty: nothing can shrink.
		return true
	}
	sat, _ := p.Sat(query)
	return !sat
}

// suffix assembles the clauses an NP call adds after a loaded prefix,
// in storage reused from query to query: a unit clause {l} is the
// window lits[l:l+1] of a table holding every literal, and the clause
// list and the shrink clause keep their capacity. The clauses are only
// valid until the next build.
type suffix struct {
	lits    []logic.Lit // lits[l] == l
	clauses logic.CNF
	last    logic.Clause
}

// reset empties the suffix and covers the literals of n atoms.
func (b *suffix) reset(n int) {
	for len(b.lits) < 2*n {
		b.lits = append(b.lits, logic.Lit(len(b.lits)))
	}
	b.clauses = b.clauses[:0]
	b.last = b.last[:0]
}

// unit appends the unit clause {l}.
func (b *suffix) unit(l logic.Lit) { b.clauses = append(b.clauses, b.lits[l:l+1:l+1]) }

// shrink builds the (P;Z) shrink suffix for m: (Q fixed as in m) ∧
// (¬p for p ∈ P\M) ∧ (∨_{p ∈ P∩M} ¬p), whose models over the database
// are those equal to m on Q with a P part strictly inside m's. The
// unit clauses follow atom order and the shrink clause comes last. ok
// is false when m∩P is empty: nothing can shrink.
func (b *suffix) shrink(m logic.Interp, part Partition, n int) (query logic.CNF, ok bool) {
	b.reset(n)
	for v := 0; v < n; v++ {
		a := logic.Atom(v)
		switch {
		case part.Q.Test(v):
			b.unit(logic.MkLit(a, m.Holds(a)))
		case part.P.Test(v):
			if m.Holds(a) {
				b.last = append(b.last, logic.NegLit(a))
			} else {
				b.unit(logic.NegLit(a))
			}
		}
	}
	if len(b.last) == 0 {
		return nil, false
	}
	b.clauses = append(b.clauses, b.last)
	return b.clauses, true
}

// fix builds the units fixing every atom outside skip to its value in
// m, in atom order.
func (b *suffix) fix(m logic.Interp, skip *bitset.Set, n int) logic.CNF {
	b.reset(n)
	for v := 0; v < n; v++ {
		if !skip.Test(v) {
			a := logic.Atom(v)
			b.unit(logic.MkLit(a, m.Holds(a)))
		}
	}
	return b.clauses
}

// block returns signatureBlock's clause for m, built in the suffix's
// clause storage.
func (b *suffix) block(m logic.Interp, part Partition, n int) logic.Clause {
	b.reset(n)
	b.last = signatureBlock(b.last, m, part, n)
	return b.last
}

// Minimize shrinks a model m to a minimal model below it by repeated
// SAT calls (each call either finds a strictly smaller model or proves
// minimality). At most |m| + 1 NP calls.
func (e *Engine) Minimize(m logic.Interp) logic.Interp {
	return e.MinimizePZ(m, FullMin(e.n))
}

// MinimizePZ shrinks m to a (P;Z)-minimal model N with N∩P ⊆ M∩P and
// N∩Q = M∩Q.
func (e *Engine) MinimizePZ(m logic.Interp, part Partition) logic.Interp {
	p := e.Ora.Prefix(e.n, e.cnf)
	defer p.Release()
	return e.minimizeAgainst(p, new(suffix), m.Clone(), part)
}

// sigSearch is the signature-blocking search over a base clause set
// (the database CNF, or a worker-pool region's query: the CNF
// strengthened by unit constraints) as a pull-based step function.
// Each step finds one base-(P;Z)-minimal signature and installs its
// blocking clause before returning, so the oracle-call sequence is
// identical whether the caller continues or stops (the clause only
// influences later steps). The base and its blocking clauses are
// loaded once, in the oracle prefix p; release returns it.
type sigSearch struct {
	e    *Engine
	p    *oracle.Prefix
	part Partition
	buf  suffix
	done bool
}

// step finds the next base-(P;Z)-minimal signature representative.
func (s *sigSearch) step() (logic.Interp, bool) {
	if s.done {
		return logic.Interp{}, false
	}
	sat, m := s.p.Sat(nil)
	if !sat {
		s.release()
		return logic.Interp{}, false
	}
	min := s.e.minimizeAgainst(s.p, &s.buf, m, s.part)
	// Block every model with the same Q part and P part ⊇ min∩P.
	if block := s.buf.block(min, s.part, s.e.n); len(block) == 0 {
		s.release() // unique signature (∅ on P, no Q): done after min
	} else {
		s.p.Add(block)
	}
	return min, true
}

// release ends the search and returns its prefix to the pool.
func (s *sigSearch) release() {
	s.done = true
	s.p.Release()
}

// signatureBlock appends to dst[:0] the clause excluding the (⊆ on P,
// = on Q) cone of m's signature: some atom of m∩P false, or some Q
// atom different from m. An empty clause means the signature is the
// unique one (∅ on P, no Q atoms) and nothing remains to search.
func signatureBlock(dst logic.Clause, m logic.Interp, part Partition, n int) logic.Clause {
	block := dst[:0]
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

// minimizeAgainst minimises m within the constraint set loaded in p
// (which may contain blocking clauses) — the blocking clauses only
// exclude supersets of already-yielded minimal models, so minimising
// within them still yields a model of DB minimal w.r.t. DB (any
// strictly smaller model of DB below a query-model is itself a
// query-model: blocking clauses are negative on P, hence closed under
// shrinking P). Each step is one NP call on p plus a shrink suffix
// built in buf.
func (e *Engine) minimizeAgainst(p *oracle.Prefix, buf *suffix, m logic.Interp, part Partition) logic.Interp {
	n := e.n
	cur := m
	for {
		query, ok := buf.shrink(cur, part, n)
		if !ok {
			return cur
		}
		sat, smaller := p.Sat(query)
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
// blocked and the search continues). DB ∧ ¬F and its blocking clauses
// are loaded once in an oracle prefix, and so is DB for minimising.
func (e *Engine) MMEntailsWitness(f *logic.Formula, part Partition) (bool, logic.Interp) {
	n := e.n
	voc := e.DB.Voc.Clone()
	neg := logic.TseitinNeg(f, voc)
	query := e.Ora.Prefix(voc.Size(), e.cnf)
	defer query.Release()
	for _, cl := range neg {
		query.Add(cl)
	}
	var base *oracle.Prefix // DB alone, loaded at the first candidate
	defer func() {
		if base != nil {
			base.Release()
		}
	}()
	var buf suffix
	for {
		sat, m := query.Sat(nil)
		if !sat {
			return true, logic.Interp{}
		}
		// Restrict to original vocabulary.
		mv := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			mv.True.SetTo(v, m.Holds(logic.Atom(v)))
		}
		if base == nil {
			base = e.Ora.Prefix(n, e.cnf)
		}
		min := e.minimizeAgainst(base, &buf, mv, part)
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
			if zsat, zm := query.Sat(buf.fix(min, part.Z, n)); zsat {
				wv := logic.NewInterp(n)
				for v := 0; v < n; v++ {
					wv.True.SetTo(v, zm.Holds(logic.Atom(v)))
				}
				return false, wv
			}
		}
		block := buf.block(min, part, n)
		if len(block) == 0 {
			return true, logic.Interp{} // unique minimal signature, already satisfies F
		}
		query.Add(block)
	}
}

// UniqueMinimalModel decides UMINSAT: does DB have exactly one minimal
// model? (Proposition 5.4: coNP-hard; our procedure uses at most
// |V|+2 NP calls: find a model, minimise it to min, then ask for a
// model not above min.) All three steps run on one loaded prefix of
// the database CNF.
func (e *Engine) UniqueMinimalModel() (bool, logic.Interp) {
	n := e.n
	p := e.Ora.Prefix(n, e.cnf)
	defer p.Release()
	ok, m := p.Sat(nil)
	if !ok {
		return false, logic.Interp{}
	}
	min := e.minimizeAgainst(p, new(suffix), m, FullMin(n))
	// Minimal models are pairwise ⊆-incomparable, so any other minimal
	// model N satisfies N ⊉ min, i.e. ∨_{a∈min} ¬a; and a model of that
	// clause lies above some minimal model other than min.
	var notAbove logic.Clause
	min.True.ForEach(func(i int) {
		notAbove = append(notAbove, logic.NegLit(logic.Atom(i)))
	})
	if len(notAbove) == 0 {
		// min = ∅ is contained in every model: unique.
		return true, min
	}
	sat, _ := p.Sat(logic.CNF{notAbove})
	if !sat {
		return true, min
	}
	return false, min
}
