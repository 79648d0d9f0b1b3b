// Package oracle provides instrumented complexity oracles.
//
// The paper locates problems in the polynomial hierarchy; the
// executable counterpart of "membership in Π₂ᵖ" is an algorithm whose
// only super-polynomial ingredient is calls to an NP oracle (and for
// P^Σ₂ᵖ[O(log n)], O(log n) calls to a Σ₂ᵖ oracle). This package wraps
// the SAT solver (the NP oracle) and the 2-QBF solver (the Σ₂ᵖ oracle)
// behind counters, so that every semantics algorithm can *report* its
// oracle usage and the benchmark harness can verify the shape of each
// table cell: 0 NP calls for the P cells, O(1)/O(n) NP calls for the
// (co)NP cells, and O(log n) Σ₂ᵖ calls for the Δ-log cells.
//
// The oracle is safe for concurrent use: the counters are atomic, so
// one instrumented oracle can be shared by a pool of workers (package
// par and the parallel enumerators of package models) without losing
// the per-cell call-count audit.
//
// Solvers for one-shot queries come from a process-wide sync.Pool. Sat
// Resets a pooled solver and loads the query CNF into its clause arena,
// so a warm query allocates only the model it returns. The incremental
// solvers of SatSolver come from the same pool and go back through the
// release it returns. A query series that shares a clause prefix (the
// minimal-model search: the database, its blocking clauses, then a few
// units per query) loads the prefix once into a pooled template with
// Prefix, and each Prefix.Sat copies the template (Solver.CopyFrom) and
// loads only its suffix. Prefix.Sat is exactly Sat on the concatenated
// CNF: same verdict, model, counters, budget charges and fault draws.
package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/faults"
	"disjunct/internal/logic"
	"disjunct/internal/sat"
)

// Counters is a snapshot of oracle usage for one inference task.
type Counters struct {
	NPCalls     int64 // SAT-oracle invocations
	Sigma2Calls int64 // Σ₂ᵖ-oracle invocations
	SATConfl    int64 // total SAT conflicts inside NP calls
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.NPCalls += other.NPCalls
	c.Sigma2Calls += other.Sigma2Calls
	c.SATConfl += other.SATConfl
}

// String renders the counters compactly.
func (c Counters) String() string {
	return fmt.Sprintf("NP=%d Σ2=%d confl=%d", c.NPCalls, c.Sigma2Calls, c.SATConfl)
}

// NP is an instrumented NP oracle over a fixed propositional
// vocabulary. Each query is an independent satisfiability question
// about a CNF; solvers are recycled through a pool (see Sat), so
// repeated queries reuse watcher lists and per-variable arrays rather
// than reallocating them.
//
// All methods are safe for concurrent use. The counters are updated
// atomically; Counters() returns a consistent-enough snapshot for the
// harness' before/after deltas (each worker's calls land exactly once,
// so totals over a quiesced oracle are exact).
type NP struct {
	npCalls     atomic.Int64
	sigma2Calls atomic.Int64
	satConfl    atomic.Int64
	noPool      atomic.Bool
	bres        atomic.Pointer[budget.B]
	inj         atomic.Pointer[faults.Injector]
}

// NewNP returns a fresh NP oracle.
func NewNP() *NP { return &NP{} }

// WithBudget attaches a shared query budget and returns the oracle
// (chainable). Every subsequent oracle call charges the budget: one
// NP call per Sat/SatSolver/CountCall, plus conflicts/propagations/
// deadline polled inside the solver. When a limit trips, the call
// raises a budget.Interrupt panic, converted into a typed error by
// the `defer budget.Recover(&err)` at the semantics/enumerator API
// boundary — counters reflect exactly the work performed before the
// interruption. A nil budget (the default) imposes no limits.
func (o *NP) WithBudget(b *budget.B) *NP {
	o.bres.Store(b)
	return o
}

// Budget returns the attached budget, nil when unlimited.
func (o *NP) Budget() *budget.B { return o.bres.Load() }

// WithFaults attaches a seeded fault injector to the one-shot solve
// path and returns the oracle (chainable). Injected faults are
// deterministic in (seed, draw sequence): latency sleeps briefly
// before solving, transient failures are retried with bounded backoff
// (promoted to faults.ErrExhausted when retries run out), and
// spurious cancellations surface as budget.ErrCanceled. Counters are
// unaffected by retries — a query is one logical NP call no matter
// how many injected attempts it takes — so a faulted run that
// completes is counter-identical to a faultless one. Callers must
// reach the oracle through a budget-aware API boundary (all semantics
// packages and the model iterators), which converts injected trips
// into typed errors. A nil injector (the default) injects nothing.
func (o *NP) WithFaults(in *faults.Injector) *NP {
	o.inj.Store(in)
	return o
}

// Faults returns the attached fault injector, nil when off.
func (o *NP) Faults() *faults.Injector { return o.inj.Load() }

// chargeCall debits one NP call from the attached budget, raising a
// budget.Interrupt if the budget is exhausted. Called before the
// counters record the call, so interrupted queries are never counted.
func (o *NP) chargeCall() {
	if err := o.bres.Load().ChargeNPCall(); err != nil {
		budget.Trip(err)
	}
}

// Counters returns the usage counters so far.
func (o *NP) Counters() Counters {
	return Counters{
		NPCalls:     o.npCalls.Load(),
		Sigma2Calls: o.sigma2Calls.Load(),
		SATConfl:    o.satConfl.Load(),
	}
}

// Reset zeroes the counters.
func (o *NP) Reset() {
	o.npCalls.Store(0)
	o.sigma2Calls.Store(0)
	o.satConfl.Store(0)
}

// SetPooling toggles solver reuse for Sat queries (on by default).
// Disabling it makes every query build a fresh solver — the baseline
// of BenchmarkOracleSatFresh; answers and call counts are identical
// either way.
func (o *NP) SetPooling(on bool) { o.noPool.Store(!on) }

// solverPool recycles CDCL solvers across one-shot Sat queries,
// process-wide: the pool is keyed by nothing (Solver.Reset regrows to
// any size), so all oracles share the warm instances.
var solverPool = sync.Pool{New: func() any { return sat.New(0) }}

// litScratch pools the per-clause literal buffer used when loading a
// logic.CNF into a solver (Solver.AddClause copies its argument, so
// the buffer is safe to reuse immediately).
var litScratch = sync.Pool{New: func() any { s := make([]sat.Lit, 0, 64); return &s }}

// getSolver returns a solver to Reset or CopyFrom, pooled unless
// pooling is disabled.
func (o *NP) getSolver() *sat.Solver {
	if o.noPool.Load() {
		return sat.New(0)
	}
	return solverPool.Get().(*sat.Solver)
}

// putSolver returns a pooled solver after a query.
func (o *NP) putSolver(s *sat.Solver) {
	if o.noPool.Load() {
		return
	}
	solverPool.Put(s)
}

// load translates a logic.CNF into solver clauses clause-by-clause
// through a pooled scratch buffer (no per-query [][]Lit allocation).
// It returns false on an UNSAT-at-level-0 conflict.
func load(s *sat.Solver, cnf ...logic.Clause) bool {
	if len(cnf) == 0 {
		return true
	}
	bufp := litScratch.Get().(*[]sat.Lit)
	buf := *bufp
	ok := true
	for _, cl := range cnf {
		buf = buf[:0]
		for _, l := range cl {
			buf = append(buf, sat.MkLit(int(l.Atom()), l.IsPos()))
		}
		if !s.AddClause(buf...) {
			ok = false
			break
		}
	}
	*bufp = buf
	litScratch.Put(bufp)
	return ok
}

// Sat reports whether the CNF over nVars variables is satisfiable and,
// if so, returns one model restricted to variables 0..nVars-1. nVars
// must cover every atom occurring in the CNF (including Tseitin atoms).
func (o *NP) Sat(nVars int, cnf logic.CNF) (bool, logic.Interp) {
	o.beginCall()
	s := o.getSolver()
	s.Reset(nVars)
	s.SetBudget(o.bres.Load())
	return o.solve(s, nVars, load(s, cnf...))
}

// Prefix is a clause prefix loaded once for a series of NP calls that
// all start with it. It is not safe for concurrent use; parallel
// workers each hold their own.
type Prefix struct {
	o     *NP
	nVars int
	tpl   *sat.Solver // the loaded prefix; dead (Okay false) once it is UNSAT at level 0
}

// Prefix loads cnf over nVars variables into a pooled template for
// later Prefix.Sat calls. Loading is not an NP call: it charges no
// counter and no budget, and draws no fault. Release returns the
// template to the pool.
func (o *NP) Prefix(nVars int, cnf logic.CNF) *Prefix {
	p := &Prefix{o: o, nVars: nVars, tpl: o.getSolver()}
	p.tpl.Reset(nVars)
	load(p.tpl, cnf...)
	return p
}

// Add extends the prefix by one clause. Clauses after one that makes
// the prefix UNSAT at level 0 are ignored, as Sat stops loading there.
func (p *Prefix) Add(cl logic.Clause) { load(p.tpl, cl) }

// Sat is one NP call on the prefix (as loaded and extended by Add)
// followed by suffix: exactly o.Sat(nVars, prefix ++ added ++ suffix),
// with the same verdict, model, counters, budget charges and fault
// draws, but without reloading the prefix.
func (p *Prefix) Sat(suffix logic.CNF) (bool, logic.Interp) {
	o := p.o
	o.beginCall()
	s := o.getSolver()
	// Attach first: CopyFrom keeps the budget and leaves the template's
	// load propagations uncharged, so Solve charges them as Sat would.
	s.SetBudget(o.bres.Load())
	s.CopyFrom(p.tpl)
	return o.solve(s, p.nVars, s.Okay() && load(s, suffix...))
}

// Release returns the template to the solver pool. The prefix must
// not be used afterwards; releasing twice is harmless.
func (p *Prefix) Release() {
	if p.tpl != nil {
		p.o.putSolver(p.tpl)
		p.tpl = nil
	}
}

// beginCall charges and counts one NP call, then runs the fault
// injector's draws for it. With a fault injector attached, each solve
// attempt may draw an injected fault: latency delays the attempt, a
// transient failure aborts it and is retried with bounded backoff
// (each retry is the same logical NP call — counters are charged
// once), and a cancellation or exhausted retry budget raises a
// budget.Interrupt.
func (o *NP) beginCall() {
	o.chargeCall()
	o.npCalls.Add(1)
	if in := o.inj.Load(); in != nil {
	attempts:
		for attempt := 0; ; attempt++ {
			kind, n := in.Draw()
			switch kind {
			case faults.Latency:
				in.SleepFor(n)
			case faults.Transient:
				if attempt >= faults.MaxRetries {
					budget.Trip(faults.ErrExhausted)
				}
				// Full-jitter backoff keyed to this draw: concurrent
				// retries spread out instead of hammering the solver
				// pool in lockstep.
				time.Sleep(in.BackoffFor(n, attempt))
				continue attempts
			case faults.Cancel:
				budget.Trip(faults.ErrInjectedCancel)
			}
			break
		}
	}
}

// solve is the tail of every one-shot NP call: s holds the query, and
// loaded is false when loading it hit an UNSAT-at-level-0 conflict.
// It solves, records the conflicts, returns s to the pool, and
// extracts the model over nVars variables.
func (o *NP) solve(s *sat.Solver, nVars int, loaded bool) (bool, logic.Interp) {
	if !loaded {
		// UNSAT detected while adding (a top-level conflict): count it
		// as one conflict — the solver's own statistic only tracks
		// conflicts found during search.
		o.satConfl.Add(s.Stats().Conflicts + 1)
		o.putSolver(s)
		return false, logic.Interp{}
	}
	st := s.Solve()
	o.satConfl.Add(s.Stats().Conflicts)
	if st == sat.Unknown {
		err := s.StopCause()
		o.putSolver(s)
		if err == nil {
			err = budget.ErrCanceled
		}
		budget.Trip(err)
	}
	if st != sat.Sat {
		o.putSolver(s)
		return false, logic.Interp{}
	}
	m := logic.NewInterp(nVars)
	for v := 0; v < nVars; v++ {
		m.True.SetTo(v, s.Model(v))
	}
	o.putSolver(s)
	return true, m
}

// SatSolver returns an incremental solver preloaded with the CNF and
// counts its construction as one NP call; additional Solve calls on the
// returned solver should be counted by the caller via CountCall. The
// solver comes from the pool Sat draws from (reset to the state of a
// fresh sat.New(nVars)), and release returns it there: call release
// exactly once, when done with the solver, and do not touch the solver
// afterwards. A caller may keep adding clauses, including over new
// variables (AddClause grows the solver).
//
// Contract on UNSAT-at-level-0: if adding a clause yields a top-level
// conflict, loading stops, the conflict is recorded in the counters
// (SATConfl), and the returned solver is in the dead state — Okay()
// reports false and every subsequent Solve returns Unsat immediately.
//
// The solver is not safe for concurrent use — parallel workers each
// take their own.
func (o *NP) SatSolver(nVars int, cnf logic.CNF) (s *sat.Solver, release func()) {
	o.chargeCall()
	o.npCalls.Add(1)
	s = o.getSolver()
	s.Reset(nVars)
	s.SetBudget(o.bres.Load())
	if !load(s, cnf...) {
		o.satConfl.Add(s.Stats().Conflicts + 1)
	}
	return s, func() { o.putSolver(s) }
}

// CountCall records one additional NP-oracle invocation (for callers
// driving an incremental solver directly).
func (o *NP) CountCall() {
	o.chargeCall()
	o.npCalls.Add(1)
}

// CheckSolve inspects the status of a Solve call on an incremental
// solver (from SatSolver) and raises a budget.Interrupt when the
// solver stopped because an attached query budget tripped. Statuses
// other than Unknown — and Unknown caused by the legacy per-solver
// conflict budget (sat.ErrBudget), which callers set deliberately —
// pass through unchanged.
func CheckSolve(s *sat.Solver, st sat.Status) sat.Status {
	if st == sat.Unknown {
		if err := s.StopCause(); budget.Interrupted(err) {
			budget.Trip(err)
		}
	}
	return st
}

// CheckEnumerate raises a budget.Interrupt when an EnumerateModels
// loop on s stopped because the attached budget tripped (the solver's
// enumeration loop treats Unknown as exhaustion, so without this
// check an interrupted enumeration would be indistinguishable from a
// complete one). Call it immediately after EnumerateModels returns.
func CheckEnumerate(s *sat.Solver) {
	if err := s.StopCause(); budget.Interrupted(err) {
		budget.Trip(err)
	}
}

// CountConflicts records delta additional SAT conflicts (for callers
// driving an incremental solver directly).
func (o *NP) CountConflicts(delta int64) { o.satConfl.Add(delta) }

// CountSigma2 records one Σ₂ᵖ-oracle invocation.
func (o *NP) CountSigma2() { o.sigma2Calls.Add(1) }

// Valid reports whether formula f is valid over vocabulary voc
// (one NP call on the negation).
func (o *NP) Valid(f *logic.Formula, voc *logic.Vocabulary) bool {
	w := voc.Clone()
	cnf := logic.TseitinNeg(f, w)
	isSat, _ := o.Sat(w.Size(), cnf)
	return !isSat
}

// Entails reports whether every model of the CNF (over the first
// nOrig variables) satisfies formula f: one NP call on CNF ∧ ¬f.
func (o *NP) Entails(nOrig int, cnf logic.CNF, f *logic.Formula, voc *logic.Vocabulary) bool {
	w := voc.Clone()
	neg := logic.TseitinNeg(f, w)
	all := make(logic.CNF, 0, len(cnf)+len(neg))
	all = append(all, cnf...)
	all = append(all, neg...)
	isSat, _ := o.Sat(w.Size(), all)
	return !isSat
}
