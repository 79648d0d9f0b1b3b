package models

import (
	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/sat"
)

// IncrementalEngine is an alternative minimal-model engine that keeps
// ONE CDCL solver alive across queries instead of building a fresh
// solver per NP-oracle call. Query-specific constraints are attached
// through activation literals and assumptions, so learned clauses are
// reused between minimality checks — the standard incremental-SAT
// architecture of production circumscription/ASP checkers.
//
// The engine answers the same questions as Engine (the test suite
// cross-validates them); BenchmarkEngineVsIncremental measures the
// difference. Every Solve on the shared solver is counted as one NP
// call on the oracle — and its conflict delta is reported too — so the
// complexity accounting matches the fresh-solver path. Assumption and
// shrink-clause buffers are reused across queries (no per-check slice
// churn).
//
// Unlike Engine, an IncrementalEngine is NOT safe for concurrent use:
// it owns one stateful solver. The parallel layer (parallel.go) gives
// each worker its own engine when incremental minimality checking is
// wanted alongside worker-pool search.
type IncrementalEngine struct {
	DB  *db.DB
	Ora *oracle.NP

	solver *sat.Solver
	nBase  int // atoms of the database vocabulary
	nVars  int // next free solver variable

	lastConfl int64     // solver conflicts already reported to Ora
	assumps   []sat.Lit // scratch: assumption literals of the current query
	scratch   []sat.Lit // scratch: shrink/blocking clause under construction
}

// NewIncrementalEngine builds the engine and loads the database CNF
// into the shared solver.
func NewIncrementalEngine(d *db.DB, o *oracle.NP) *IncrementalEngine {
	if o == nil {
		o = oracle.NewNP()
	}
	e := &IncrementalEngine{DB: d, Ora: o, nBase: d.N(), nVars: d.N()}
	e.solver = sat.New(d.N())
	e.solver.SetBudget(o.Budget())
	for _, cl := range d.ToCNF() {
		lits := make([]sat.Lit, len(cl))
		for i, l := range cl {
			lits[i] = sat.MkLit(int(l.Atom()), l.IsPos())
		}
		e.solver.AddClause(lits...)
	}
	return e
}

// fresh allocates a new solver variable (activation literals).
func (e *IncrementalEngine) fresh() int {
	v := e.nVars
	e.nVars++
	return v
}

// solve runs one counted query on the shared solver, reporting the
// call and its conflict delta to the oracle.
func (e *IncrementalEngine) solve(assumptions ...sat.Lit) sat.Status {
	e.Ora.CountCall()
	st := e.solver.Solve(assumptions...)
	c := e.solver.Stats().Conflicts
	e.Ora.CountConflicts(c - e.lastConfl)
	e.lastConfl = c
	// A budget trip surfaces as Unknown; raise it so the callers'
	// status checks never mistake an interrupted query for Unsat.
	return oracle.CheckSolve(e.solver, st)
}

// HasModel reports satisfiability of the database.
func (e *IncrementalEngine) HasModel() (bool, logic.Interp) {
	if e.solve() != sat.Sat {
		return false, logic.Interp{}
	}
	return true, e.model()
}

func (e *IncrementalEngine) model() logic.Interp {
	m := logic.NewInterp(e.nBase)
	for v := 0; v < e.nBase; v++ {
		m.True.SetTo(v, e.solver.Model(v))
	}
	return m
}

// IsMinimalPZ reports whether m is (P;Z)-minimal, reusing the shared
// solver: the "shrink" clause is guarded by a fresh activation literal
// and the Q/P fixings travel as assumptions.
func (e *IncrementalEngine) IsMinimalPZ(m logic.Interp, part Partition) bool {
	assumptions := e.assumps[:0]
	shrink := e.scratch[:0]
	act := e.fresh()
	shrink = append(shrink, sat.MkLit(act, false)) // ¬act ∨ ⋁ ¬p
	for v := 0; v < e.nBase; v++ {
		a := logic.Atom(v)
		switch {
		case part.Q.Test(v):
			assumptions = append(assumptions, sat.MkLit(v, m.Holds(a)))
		case part.P.Test(v):
			if m.Holds(a) {
				shrink = append(shrink, sat.MkLit(v, false))
			} else {
				assumptions = append(assumptions, sat.MkLit(v, false))
			}
		}
	}
	e.assumps, e.scratch = assumptions, shrink
	if len(shrink) == 1 {
		e.deactivate(act)
		return true // M∩P empty: nothing to shrink
	}
	e.solver.AddClause(shrink...)
	assumptions = append(assumptions, sat.MkLit(act, true))
	e.assumps = assumptions
	res := e.solve(assumptions...)
	e.deactivate(act)
	return res != sat.Sat
}

// MinimizePZ shrinks m to a (P;Z)-minimal model below it.
func (e *IncrementalEngine) MinimizePZ(m logic.Interp, part Partition) logic.Interp {
	cur := m.Clone()
	for {
		assumptions := e.assumps[:0]
		shrink := e.scratch[:0]
		act := e.fresh()
		shrink = append(shrink, sat.MkLit(act, false))
		for v := 0; v < e.nBase; v++ {
			a := logic.Atom(v)
			switch {
			case part.Q.Test(v):
				assumptions = append(assumptions, sat.MkLit(v, cur.Holds(a)))
			case part.P.Test(v):
				if cur.Holds(a) {
					shrink = append(shrink, sat.MkLit(v, false))
				} else {
					assumptions = append(assumptions, sat.MkLit(v, false))
				}
			}
		}
		e.assumps, e.scratch = assumptions, shrink
		if len(shrink) == 1 {
			e.deactivate(act)
			return cur
		}
		e.solver.AddClause(shrink...)
		assumptions = append(assumptions, sat.MkLit(act, true))
		e.assumps = assumptions
		res := e.solve(assumptions...)
		if res != sat.Sat {
			e.deactivate(act)
			return cur
		}
		next := e.model()
		e.deactivate(act)
		cur = next
	}
}

// Minimize is MinimizePZ with full minimisation.
func (e *IncrementalEngine) Minimize(m logic.Interp) logic.Interp {
	return e.MinimizePZ(m, FullMin(e.nBase))
}

// IsMinimal is IsMinimalPZ with full minimisation.
func (e *IncrementalEngine) IsMinimal(m logic.Interp) bool {
	return e.IsMinimalPZ(m, FullMin(e.nBase))
}

// deactivate permanently satisfies the guarded clause so it never
// constrains future queries.
func (e *IncrementalEngine) deactivate(act int) {
	e.solver.AddClause(sat.MkLit(act, false))
}

// Vars returns the current solver variable count (base atoms plus all
// activation and auxiliary variables allocated so far) — the staleness
// measure warm sessions retire engines on.
func (e *IncrementalEngine) Vars() int { return e.nVars }

// SetBudget (re)attaches a query budget to the shared solver. The
// oracle's own budget is attached separately (oracle.WithBudget); warm
// sessions swap both per request.
func (e *IncrementalEngine) SetBudget(b *budget.B) { e.solver.SetBudget(b) }

// MMEntails reports MM(DB;P;Z) ⊨ F on the shared solver — the warm
// counterpart of Engine.MMEntails with identical verdicts (the test
// suite cross-validates them). The ¬F Tseitin clauses and the
// signature-blocking clauses of the candidate loop are guarded by one
// per-query activation literal, so they vanish for later queries while
// every learned clause survives. Candidate minimisation reuses
// MinimizePZ unchanged: like the fresh path, candidates are minimised
// against the database alone, and the unguarded base clauses are
// exactly that.
func (e *IncrementalEngine) MMEntails(f *logic.Formula, part Partition) bool {
	n := e.nBase
	voc := e.DB.Voc.Clone()
	neg := logic.TseitinNeg(f, voc)
	qact := e.fresh()
	defer e.deactivate(qact)
	// Tseitin auxiliary atoms are numbered from n upward in the cloned
	// vocabulary; on the shared solver those indices were consumed long
	// ago by activation variables of earlier queries (some forced false
	// by deactivation units), so the auxiliaries are remapped onto a
	// freshly reserved variable block.
	auxBase := e.nVars
	e.nVars += voc.Size() - n
	remap := func(a int) int {
		if a >= n {
			return auxBase + (a - n)
		}
		return a
	}
	lits := e.scratch[:0]
	for _, cl := range neg {
		lits = lits[:0]
		lits = append(lits, sat.MkLit(qact, false)) // ¬qact ∨ clause
		for _, l := range cl {
			lits = append(lits, sat.MkLit(remap(int(l.Atom())), l.IsPos()))
		}
		e.solver.AddClause(lits...)
	}
	e.scratch = lits
	for {
		if e.solve(sat.MkLit(qact, true)) != sat.Sat {
			return true
		}
		min := e.MinimizePZ(e.model(), part)
		if !f.Eval(min) {
			return false // a (P;Z)-minimal model violating F
		}
		// Same Z-variant subtlety as the fresh path: Z-variants of min
		// share its signature and are minimal because min is, so one of
		// them violating F decides the query. Fix every non-Z atom to
		// min's value by assumption and re-ask the guarded query.
		if !part.Z.IsEmpty() {
			assumptions := e.assumps[:0]
			assumptions = append(assumptions, sat.MkLit(qact, true))
			for v := 0; v < n; v++ {
				if part.Z.Test(v) {
					continue
				}
				assumptions = append(assumptions, sat.MkLit(v, min.Holds(logic.Atom(v))))
			}
			e.assumps = assumptions
			if e.solve(assumptions...) == sat.Sat {
				return false
			}
		}
		block := signatureBlock(nil, min, part, n)
		if len(block) == 0 {
			return true // unique minimal signature, already satisfies F
		}
		lits := e.scratch[:0]
		lits = append(lits, sat.MkLit(qact, false))
		for _, l := range block {
			lits = append(lits, sat.MkLit(int(l.Atom()), l.IsPos()))
		}
		e.scratch = lits
		e.solver.AddClause(lits...)
	}
}
