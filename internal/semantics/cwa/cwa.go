// Package cwa implements Reiter's original Closed World Assumption,
// which the paper discusses in §3.1 as the baseline the disjunctive
// semantics repair: CWA(DB) adds ¬x for every atom x not classically
// entailed by DB. On a disjunctive database the result is often
// inconsistent (from a ∨ b neither a nor b is entailed, so both ¬a and
// ¬b are added) — "this is not suitable for disjunctive databases
// since it enforces a unique model of the DB if the result is
// consistent".
//
// The paper's aside on its complexity is implemented too: deciding
// whether CWA(DB) is nonempty is coNP-hard and in P^NP[O(log n)]
// (Eiter–Gottlob [7]); HasModelLogCalls realises the upper bound with
// a binary search making O(log n) NP-oracle calls, mirroring — one
// level down the hierarchy — the Δ-log algorithm used for GCWA/CCWA
// formula inference.
package cwa

import (
	"fmt"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("CWA", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Describe(core.Info{
		Name:       "CWA",
		Complexity: "literal/formula coNP; existence coNP-hard, in P^NP[O(log n)]",
		Cells:      core.Cells{Literal: core.CellCoNP, Formula: core.CellCoNP, Existence: core.CellCoNP},
	})
}

// Sem is Reiter's CWA.
type Sem struct {
	opts core.Options
}

// New returns a CWA instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts}
}

// Name returns "CWA".
func (s *Sem) Name() string { return "CWA" }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

// NegatedAtoms returns {x : DB ⊭ x}, the atoms CWA closes off.
// One NP call per atom.
func (s *Sem) NegatedAtoms(d *db.DB) []logic.Atom {
	cnf := d.ToCNF()
	n := d.N()
	var out []logic.Atom
	for v := 0; v < n; v++ {
		query := logic.CloneCNF(cnf)
		query = append(query, logic.Clause{logic.NegLit(logic.Atom(v))})
		if sat, _ := s.opts.Oracle.Sat(n, query); sat {
			out = append(out, logic.Atom(v)) // a model without x exists
		}
	}
	return out
}

func (s *Sem) closureCNF(d *db.DB) logic.CNF {
	cnf := d.ToCNF()
	for _, a := range s.NegatedAtoms(d) {
		cnf = append(cnf, logic.Clause{logic.NegLit(a)})
	}
	return cnf
}

// HasModel decides CWA(DB) ≠ ∅ by computing the closure: n+1 NP calls.
// See HasModelLogCalls for the O(log n)-call upper bound.
func (s *Sem) HasModel(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	sat, _ := s.opts.Oracle.Sat(d.N(), s.closureCNF(d))
	return sat, nil
}

// HasModelLogCalls decides CWA(DB) ≠ ∅ with O(log n) NP-oracle calls
// (the P^NP[O(log n)] upper bound the paper cites from [7]).
//
// Key observation: CWA(DB) is nonempty iff DB has a model M with
// M ⊆ E, where E = {x : DB ⊨ x} is the set of entailed atoms — and
// such a model must equal E exactly (it contains E by entailment).
// Equivalently: CWA(DB) ≠ ∅ iff DB ∧ "at most k atoms true" is
// satisfiable for k = |E| and every satisfying model of minimum
// cardinality consists of entailed atoms only. The algorithm:
//
//  1. binary-search kmin = the minimum number of true atoms over
//     models of DB (O(log n) NP calls on DB ∧ AtMost(k));
//  2. one final NP call asks for a model M with |M| = kmin together
//     with a second model N and an atom x ∈ M ∖ N (witnessing
//     non-entailment of some atom of M): if none exists, every
//     minimum-cardinality model consists of entailed atoms — but all
//     entailed atoms lie in every model, so M = E and M ⊨ CWA(DB).
//
// Correctness: CWA(DB) ≠ ∅ ⟺ E is a model of DB. If E is a model it
// has minimum cardinality (every model contains E) and no atom of E
// can be missing from another model. Conversely if some minimum
// model M contains a non-entailed atom x (witnessed by N ∌ x), then
// E ⊊ M strictly; E being a model would contradict M's minimality if
// E were a model — and if E is not a model, CWA(DB) = ∅.
func (s *Sem) HasModelLogCalls(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	n := d.N()
	base := d.ToCNF()
	if sat, _ := s.opts.Oracle.Sat(n, base); !sat {
		return false, nil
	}
	atMostK := func(k int) (logic.CNF, int) {
		voc := d.Voc.Clone()
		lits := make([]logic.Lit, n)
		for v := 0; v < n; v++ {
			lits[v] = logic.PosLit(logic.Atom(v))
		}
		query := logic.CloneCNF(base)
		query = append(query, logic.AtMostK(lits, k, voc)...)
		return query, voc.Size()
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		q, size := atMostK(mid)
		if sat, _ := s.opts.Oracle.Sat(size, q); sat {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	kmin := lo

	// Final query: two model copies M, N of DB, |M| ≤ kmin, and some
	// atom true in M but false in N. Satisfiable ⟺ some minimum-
	// cardinality model contains a non-entailed atom ⟺ CWA(DB) = ∅.
	voc := logic.NewVocabulary()
	for v := 0; v < n; v++ {
		voc.Intern("m$" + d.Voc.Name(logic.Atom(v)))
	}
	for v := 0; v < n; v++ {
		voc.Intern("n$" + d.Voc.Name(logic.Atom(v)))
	}
	diff := make([]logic.Atom, n)
	for v := 0; v < n; v++ {
		diff[v] = voc.Intern(fmt.Sprintf("d$%d", v))
	}
	shift := func(offset int) logic.CNF {
		out := make(logic.CNF, len(base))
		for i, cl := range base {
			ncl := make(logic.Clause, len(cl))
			for j, l := range cl {
				ncl[j] = logic.MkLit(logic.Atom(int(l.Atom())+offset), l.IsPos())
			}
			out[i] = ncl
		}
		return out
	}
	var query logic.CNF
	query = append(query, shift(0)...) // M copy at atoms 0..n-1
	query = append(query, shift(n)...) // N copy at atoms n..2n-1
	mlits := make([]logic.Lit, n)
	var anyDiff logic.Clause
	for v := 0; v < n; v++ {
		mlits[v] = logic.PosLit(logic.Atom(v))
		// d_v → M_v ∧ ¬N_v
		query = append(query,
			logic.Clause{logic.NegLit(diff[v]), logic.PosLit(logic.Atom(v))},
			logic.Clause{logic.NegLit(diff[v]), logic.NegLit(logic.Atom(n + v))},
		)
		anyDiff = append(anyDiff, logic.PosLit(diff[v]))
	}
	query = append(query, anyDiff)
	query = append(query, logic.AtMostK(mlits, kmin, voc)...)
	sat, _ := s.opts.Oracle.Sat(voc.Size(), query)
	return !sat, nil
}

// InferLiteral decides CWA(DB) ⊨ l: classical entailment from the
// closure (vacuously true when the closure is inconsistent, matching
// the convention of the other semantics).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	return s.InferFormula(d, logic.LitF(l))
}

// InferFormula decides CWA(DB) ⊨ f.
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	return s.opts.Oracle.Entails(d.N(), s.closureCNF(d), f, d.Voc), nil
}

// Models enumerates CWA(DB). The closure has at most one model (the
// paper: CWA "enforces a unique model of the DB if the result is
// consistent"): every atom is either entailed — true in all models —
// or negated by the closure.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	defer budget.Recover(&err)
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

// CheckModel reports whether m ∈ CWA(DB): m models DB and every atom
// of m is classically entailed (one NP call per true atom).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (ok bool, err error) {
	defer budget.Recover(&err)
	if !d.Sat(m) {
		return false, nil
	}
	cnf := d.ToCNF()
	n := d.N()
	for v := 0; v < n; v++ {
		if !m.Holds(logic.Atom(v)) {
			continue
		}
		query := logic.CloneCNF(cnf)
		query = append(query, logic.Clause{logic.NegLit(logic.Atom(v))})
		if sat, _ := s.opts.Oracle.Sat(n, query); sat {
			return false, nil // v is not entailed, yet true in m
		}
	}
	return true, nil
}
