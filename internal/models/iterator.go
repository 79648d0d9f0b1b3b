package models

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/sat"
	"disjunct/internal/strat"
)

// This file is the model engine's only enumeration surface. Every
// enumerator variant — serial or worker-pool, all-models or
// (P;Z)-minimal — is a ModelIterator, and Drain feeds any of them to a
// budget-aware yield callback. A consumer controls pacing, can stop
// after any model without paying for the rest, and receives the
// interruption cause as a typed error instead of a recovered panic.
//
// Iterator contract:
//
//   - Next returns (model, nil) for each model. A worker-pool variant
//     returns the same set (for PZ, the same signatures) as its serial
//     counterpart, in nondeterministic order, with worker-count-
//     invariant NP-oracle charging when unlimited.
//   - The terminal error is sticky and typed: io.EOF means the
//     enumeration COMPLETED; ErrLimit means the constructor's limit
//     was reached; any other error is a budget-class interruption
//     (budget.ErrCanceled, ErrDeadline, ErrConflictBudget,
//     ErrPropagationBudget, ErrNPCallBudget, possibly wrapped). Models
//     returned before a non-EOF terminal are genuine models — partial
//     prefixes are valid, just not exhaustive.
//   - A ctx passed to Next is polled before each step; cancellation
//     surfaces as an error wrapping budget.ErrCanceled.
//   - Close is idempotent, releases any producer goroutine, and never
//     loses a budget trip (the trip is recorded as the terminal error,
//     not re-raised). Iterators are not safe for concurrent use.

// ModelIterator is a pull-based model enumeration in progress.
type ModelIterator interface {
	// Next returns the next model, or a sticky terminal error.
	Next(ctx context.Context) (logic.Interp, error)
	// Close releases the iterator's resources. Safe to call multiple
	// times and concurrently with nothing (not with Next).
	Close() error
}

// ErrLimit is the terminal error of an iterator whose constructor
// limit was reached: the enumeration stopped by request, with the
// model set possibly non-exhausted.
var ErrLimit = errors.New("models: enumeration limit reached")

// ctxErr converts a context's cancellation into the typed budget
// taxonomy (the same classification budget.New applies).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := context.Cause(ctx)
		if errors.Is(cause, context.DeadlineExceeded) {
			return fmt.Errorf("%w: %v", budget.ErrDeadline, cause)
		}
		return fmt.Errorf("%w: %v", budget.ErrCanceled, cause)
	default:
		return nil
	}
}

// stepIter adapts a serial step function — one (model, more) probe per
// call, raising budget.Interrupt panics on trips — into the iterator
// contract. Zero goroutines: the producer runs inside Next.
type stepIter struct {
	step    func() (logic.Interp, bool)
	release func() // frees the step function's resources; nil if none
	limit   int
	count   int
	err     error
}

func (it *stepIter) Next(ctx context.Context) (logic.Interp, error) {
	if it.err != nil {
		return logic.Interp{}, it.err
	}
	if cerr := ctxErr(ctx); cerr != nil {
		it.err = cerr
		return logic.Interp{}, it.err
	}
	if it.limit > 0 && it.count >= it.limit {
		it.err = ErrLimit
		return logic.Interp{}, it.err
	}
	var (
		m   logic.Interp
		ok  bool
		err error
	)
	func() {
		defer budget.Recover(&err)
		m, ok = it.step()
	}()
	switch {
	case err != nil:
		it.err = err
	case !ok:
		it.err = io.EOF
	default:
		it.count++
		return m, nil
	}
	return logic.Interp{}, it.err
}

func (it *stepIter) Close() error {
	if it.err == nil {
		it.err = io.EOF
	}
	if it.release != nil {
		it.release()
	}
	return nil
}

// pumpIter adapts a worker-pool producer into the iterator contract:
// one producer goroutine runs the pool with a yield that hands models
// over an unbuffered channel, so the pool never runs ahead of the
// consumer by more than the workers' in-flight items. Close (or a
// yield refusal after stop) drains the producer — no goroutine is ever
// leaked, and a budget trip inside a worker becomes the terminal error
// rather than a re-raised panic.
type pumpIter struct {
	ch    chan logic.Interp
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	perr  error // producer's terminal error; readable after done closes
	limit int
	count int
	err   error
}

// newPumpIter starts the producer. run must invoke yield once per
// model and respect yield returning false (the pools do, via their
// emitter).
func newPumpIter(limit int, run func(yield func(logic.Interp) bool)) *pumpIter {
	p := &pumpIter{
		ch:    make(chan logic.Interp),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		limit: limit,
	}
	go func() {
		var err error
		func() {
			defer budget.Recover(&err)
			run(func(m logic.Interp) bool {
				select {
				case p.ch <- m:
					return true
				case <-p.stop:
					return false
				}
			})
		}()
		p.perr = err
		close(p.ch)
		close(p.done)
	}()
	return p
}

func (p *pumpIter) Next(ctx context.Context) (logic.Interp, error) {
	if p.err != nil {
		return logic.Interp{}, p.err
	}
	// A dead ctx wins over a ready model: poll it first so
	// cancellation is deterministic rather than racing the select.
	if cerr := ctxErr(ctx); cerr != nil {
		p.err = cerr
		return logic.Interp{}, p.err
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case m, ok := <-p.ch:
		if ok {
			p.count++
			return m, nil
		}
		<-p.done
		switch {
		case p.perr != nil:
			p.err = p.perr
		case p.limit > 0 && p.count >= p.limit:
			p.err = ErrLimit
		default:
			p.err = io.EOF
		}
		return logic.Interp{}, p.err
	case <-cancel:
		p.err = ctxErr(ctx)
		return logic.Interp{}, p.err
	}
}

func (p *pumpIter) Close() error {
	p.once.Do(func() { close(p.stop) })
	for range p.ch {
		// Discard in-flight models until the producer exits; each
		// worker's next yield sees stop closed and unwinds.
	}
	<-p.done
	if p.err == nil {
		p.err = io.EOF
	}
	return nil
}

// enumSearch is the pull-based core of all-models enumeration: the
// blocked-clause solver loop of sat.Solver.EnumerateModels unrolled
// into a step function, charging the oracle one call for the solver
// build and one per model found.
type enumSearch struct {
	e     *Engine
	s     *sat.Solver
	free  func() // returns s to the oracle's pool
	block []sat.Lit
	done  bool
}

// step finds the next model. The solver is built lazily so that a
// budget trip during construction surfaces from the first step (inside
// the iterator's Recover) rather than from the constructor.
func (es *enumSearch) step() (logic.Interp, bool) {
	if es.done {
		return logic.Interp{}, false
	}
	n := es.e.n
	if es.s == nil {
		es.s, es.free = es.e.Ora.SatSolver(n, es.e.cnf)
	}
	if es.s.Solve() != sat.Sat {
		es.done = true
		// Distinguish exhaustion from a mid-enumeration budget trip.
		oracle.CheckEnumerate(es.s)
		return logic.Interp{}, false
	}
	es.e.Ora.CountCall()
	m := logic.NewInterp(n)
	es.block = es.block[:0]
	for v := 0; v < n; v++ {
		val := es.s.Model(v)
		m.True.SetTo(v, val)
		es.block = append(es.block, sat.MkLit(v, !val))
	}
	if !es.s.AddClause(es.block...) {
		es.done = true // blocked the last model: formula exhausted
	}
	return m, true
}

// release returns the solver to the pool; later calls do nothing.
func (es *enumSearch) release() {
	if es.free != nil {
		es.free()
		es.free, es.s, es.done = nil, nil, true
	}
}

// IterateModels enumerates every model of the database over the
// original vocabulary. Each model costs one NP call, plus one for the
// solver build (blocked solver reuse is an implementation detail of
// the sat package). limit ≤ 0 means unlimited.
func (e *Engine) IterateModels(limit int) ModelIterator {
	es := &enumSearch{e: e}
	return &stepIter{step: es.step, release: es.release, limit: limit}
}

// IterateModelsPar is IterateModels across the cube-decomposed worker
// pool (enumerateModelsPar): same model set, nondeterministic order,
// worker-count-invariant oracle totals.
func (e *Engine) IterateModelsPar(limit int, opt ParOptions) ModelIterator {
	if e.n == 0 {
		return e.IterateModels(limit) // no variable to split cubes on
	}
	return newPumpIter(limit, func(yield func(logic.Interp) bool) {
		e.enumerateModelsPar(limit, opt, yield)
	})
}

// IterateMinimalModels enumerates MM(DB), the set of minimal models, by
// iterative SAT: find a model, minimise it, yield it, then block it by
// the clause ∨_{a ∈ M} ¬a ("some atom of M must be false"). Every
// other minimal model satisfies that clause (minimal models are
// pairwise ⊆-incomparable) and every model violating it is a superset
// of M, hence non-minimal — so nothing is lost and nothing above M is
// revisited. For M = ∅ the blocking clause would be empty: ∅ is then
// the unique minimal model and enumeration stops. limit ≤ 0 means
// unlimited.
func (e *Engine) IterateMinimalModels(limit int) ModelIterator {
	return e.IterateMinimalModelsPZ(FullMin(e.n), limit)
}

// IterateMinimalModelsPZ enumerates MM(DB;P;Z), one representative per
// (P,Q)-signature. After a (P;Z)-minimal model M it blocks the clause
// "some atom of M∩P false, or some Q atom differs from M": minimal
// models with distinct signatures are incomparable under (⊆ on P, = on
// Q) and so survive; models agreeing with M on Q with P-part ⊇ M∩P
// are either non-minimal or Z-variants of M's signature. Z-variants
// (models equal to M on P and Q but different on Z) are themselves
// (P;Z)-minimal exactly when M is; callers that must reason over them
// (formula inference) do so via MMEntails, which checks Z-variants
// with a dedicated SAT call before blocking a signature.
func (e *Engine) IterateMinimalModelsPZ(part Partition, limit int) ModelIterator {
	s := &sigSearch{e: e, p: e.Ora.Prefix(e.n, e.cnf), part: part}
	return &stepIter{step: s.step, release: s.release, limit: limit}
}

// IterateMinimalModelsPar is IterateMinimalModels across the
// region-decomposed worker pool.
func (e *Engine) IterateMinimalModelsPar(limit int, opt ParOptions) ModelIterator {
	return e.IterateMinimalModelsPZPar(FullMin(e.n), limit, opt)
}

// IterateMinimalModelsPZPar is IterateMinimalModelsPZ across the
// region-decomposed worker pool (minimalModelsPZPar): same signature
// set, nondeterministic order and Z-representatives.
func (e *Engine) IterateMinimalModelsPZPar(part Partition, limit int, opt ParOptions) ModelIterator {
	return newPumpIter(limit, func(yield func(logic.Interp) bool) {
		e.minimalModelsPZPar(part, limit, opt, yield)
	})
}

// ErrHeadCycle is the terminal error of IterateMinimalModelsHCF on a
// database that is not head-cycle-free.
var ErrHeadCycle = errors.New("models: database is not head-cycle-free")

// IterateMinimalModelsHCF enumerates MM(DB), the minimal models of
// d.ToCNF(), for a head-cycle-free d (strat.HeadCycleFree): the set of
// IterateMinimalModels, in another order, at one NP call per model
// plus one. On such a d the minimal models are exactly the stable
// models of the shifted normal program (Ben-Eliyahu & Dechter), whose
// support encoding (strat.Support) is loaded once into one pooled
// incremental solver. Each solution's atoms M are then blocked by
// ⋁_{a∈M} ¬a, as in IterateMinimalModels: no model found later
// contains M, and every solution is minimal, so none needs a
// minimality check. M = ∅ blocks with the empty clause and ends the
// enumeration. On a d with a head cycle the iterator ends at once with
// ErrHeadCycle, at no NP call. o is the oracle charged (a fresh one if
// nil); limit ≤ 0 means unlimited.
func IterateMinimalModelsHCF(d *db.DB, o *oracle.NP, limit int) ModelIterator {
	if o == nil {
		o = oracle.NewNP()
	}
	hs := &hcfSearch{d: d, o: o}
	return &stepIter{step: hs.step, release: hs.release, limit: limit}
}

// hcfSearch is enumSearch on the shifted encoding: one NP call for the
// solver build and one per model found.
type hcfSearch struct {
	d    *db.DB
	o    *oracle.NP
	s    *sat.Solver
	free func()    // returns s to the oracle's pool
	lits []sat.Lit // the clause being loaded or blocked
	done bool
}

// step finds the next model. The solver is built and the encoding
// loaded lazily, so that a budget trip during either surfaces from the
// first step inside the iterator's Recover.
func (hs *hcfSearch) step() (logic.Interp, bool) {
	if hs.done {
		return logic.Interp{}, false
	}
	n := hs.d.N()
	if hs.s == nil {
		if _, ok := strat.Support(hs.d, n, true, hs.o.Budget(), hs); !ok {
			hs.done = true
			budget.Trip(ErrHeadCycle) // carried to the terminal error
		}
		hs.build() // an empty database loads no clause
	}
	if oracle.CheckSolve(hs.s, hs.s.Solve()) != sat.Sat {
		hs.done = true
		return logic.Interp{}, false
	}
	hs.o.CountCall()
	m := logic.NewInterp(n)
	hs.lits = hs.lits[:0]
	for v := 0; v < n; v++ {
		if hs.s.Model(v) {
			m.True.Set(v)
			hs.lits = append(hs.lits, sat.MkLit(v, false))
		}
	}
	if !hs.s.AddClause(hs.lits...) {
		hs.done = true // blocked the last model, or M = ∅
	}
	return m, true
}

// build takes the solver, charging the NP call of its build, unless
// the search holds one.
func (hs *hcfSearch) build() {
	if hs.s == nil {
		hs.s, hs.free = hs.o.SatSolver(hs.d.N(), nil)
	}
}

// Clause loads one clause of the encoding into the solver, built on the
// first clause, so a refused database costs no NP call (strat.Sink).
func (hs *hcfSearch) Clause(cl logic.Clause) {
	hs.build()
	hs.lits = hs.lits[:0]
	for _, l := range cl {
		hs.lits = append(hs.lits, sat.MkLit(int(l.Atom()), l.IsPos()))
	}
	hs.s.AddClause(hs.lits...)
}

// release returns the solver to the pool; later calls do nothing.
func (hs *hcfSearch) release() {
	if hs.free != nil {
		hs.free()
		hs.free, hs.s, hs.done = nil, nil, true
	}
}

// Drain pulls it dry, feeding each model to yield, and maps the
// terminal taxonomy onto a completion error: io.EOF and ErrLimit (and
// a yield refusal) are completion (nil error); anything else is the
// typed interruption cause. Drain closes the iterator.
//
// This is the budget-aware yield boundary of the model engine. The
// budget lives on the oracle (oracle.NP.WithBudget): every NP call
// charges it and every solver polls it, and the iterators recover the
// resulting budget.Interrupt into their typed terminal. Drain's result
// follows the three-valued enumeration contract:
//
//   - err == nil: the enumeration COMPLETED; the yielded sequence is
//     exactly what the same iterator yields without a budget
//     (byte-identical — the budget machinery never changes search
//     order).
//   - err != nil: the enumeration is INCOMPLETE; err is one of the
//     typed causes (budget.ErrCanceled, ErrDeadline,
//     ErrConflictBudget, ErrPropagationBudget, ErrNPCallBudget, or a
//     fault-injection error wrapping one of these). Every model
//     yielded before the trip is a genuine model — partial results
//     are valid, just not exhaustive. count is the number of yields
//     that actually happened.
//
// Over a worker-pool iterator a trip inside any worker drains the pool
// (no goroutine leaks, no lost panics — see par.ForEach) and halts the
// emitter, so no in-flight sibling yields after the trip.
func Drain(it ModelIterator, yield func(logic.Interp) bool) (count int, err error) {
	defer it.Close()
	for {
		m, nerr := it.Next(nil)
		switch {
		case nerr == nil:
			count++
			if !yield(m) {
				return count, nil
			}
		case errors.Is(nerr, io.EOF), errors.Is(nerr, ErrLimit):
			return count, nil
		default:
			return count, nerr
		}
	}
}
