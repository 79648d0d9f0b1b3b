package models

import (
	"sync"

	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/par"
	"disjunct/internal/sat"
)

// This file is the worker-pool layer of the model engine: the
// producers behind IterateModelsPar and IterateMinimalModelsPZPar,
// driven only by pumpIter. They decompose the search space STATICALLY
// — into regions (minimal models) or cubes (all models) — so that each
// piece performs the same NP-oracle queries regardless of how many
// workers run it or in which order. Consequence: with no limit or
// early stop, the total oracle-call count is a function of the
// database alone, identical for 1 worker and NumCPU workers — the
// complexity-shape evidence the bench harness reports stays exact
// while wall-clock drops. bench.RunParallel asserts this.
//
// Region decomposition for minimal models: each (P,Q)-signature has a
// unique least true P-atom (or none), so the regions
//
//	R_v = "P-atoms before v false, p_v true"   (v ∈ P, ascending)
//	R_∅ = "every P-atom false"
//
// partition the signature space. Within R_v the engine runs the usual
// signature-blocking search against DB ∧ R_v's units; a region-minimal
// signature need not be globally minimal (a smaller model may drop
// p_v into a later region), so each one is verified with one global
// minimality call before being yielded. Blocking a region-minimal
// cone never hides a globally minimal signature: anything strictly
// inside the cone has a region model strictly below it on P.

// ParOptions configures the worker-pool iterators.
type ParOptions struct {
	// Workers is the goroutine count; ≤ 0 means runtime.NumCPU().
	Workers int
}

// emitter serialises yields from concurrent workers and implements
// limit / early-stop. User callbacks never run concurrently.
type emitter struct {
	mu      sync.Mutex
	yield   func(logic.Interp) bool
	limit   int
	count   int
	stopped bool
}

// emit delivers m; it reports whether the caller should keep working.
func (em *emitter) emit(m logic.Interp) bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.stopped {
		return false
	}
	em.count++
	if !em.yield(m) || (em.limit > 0 && em.count >= em.limit) {
		em.stopped = true
	}
	return !em.stopped
}

func (em *emitter) done() bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.stopped
}

// halt stops emission unconditionally. Workers call it (under recover)
// the moment a budget trip unwinds them, so that no in-flight sibling
// invokes the user callback after the trip: emit and halt linearise on
// the mutex, and any emit that starts after halt returns false without
// touching yield.
func (em *emitter) halt() {
	em.mu.Lock()
	em.stopped = true
	em.mu.Unlock()
}

// minimalModelsPZPar computes MM(DB;P;Z) — one representative per
// (P,Q)-signature, like IterateMinimalModelsPZ — with region-decomposed
// worker-pool search. The signature set is identical to the serial
// enumerator's; representatives may differ on Z atoms (any Z-variant
// is as (P;Z)-minimal as another). Under full minimisation the minimal
// models ARE their signatures, so the model set is MM(DB) exactly.
func (e *Engine) minimalModelsPZPar(part Partition, limit int, opt ParOptions, yield func(logic.Interp) bool) {
	pAtoms := part.P.Elements()
	em := &emitter{yield: yield, limit: limit}

	runRegion := func(i int) {
		if em.done() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				em.halt() // budget trip: silence siblings before unwinding
				panic(r)
			}
		}()
		// Region query: DB ∧ ¬p_w (w before i) ∧ p_i (omitted for R_∅).
		query := logic.CloneCNF(e.cnf)
		for j := 0; j < i && j < len(pAtoms); j++ {
			query = append(query, logic.Clause{logic.NegLit(logic.Atom(pAtoms[j]))})
		}
		if i < len(pAtoms) {
			query = append(query, logic.Clause{logic.PosLit(logic.Atom(pAtoms[i]))})
		}
		s := &sigSearch{e: e, query: query, part: part}
		for {
			m, ok := s.step()
			if !ok || em.done() {
				return
			}
			// Region-minimal; globally minimal? One NP call.
			if e.IsMinimalPZ(m, part) && !em.emit(m) {
				return
			}
		}
	}

	par.ForEach(opt.Workers, len(pAtoms)+1, runRegion)
}

// enumCubeBits is the static cube width of enumerateModelsPar: the
// model space splits on the first min(n, enumCubeBits) variables into
// up to 2^enumCubeBits disjoint cubes. Fixed (not worker-derived) so
// the oracle-call count never depends on the machine's core count.
const enumCubeBits = 6

// enumerateModelsPar yields every model of the database (n ≥ 1 atoms)
// across a worker pool, one cube of the (statically split) assignment
// space per work item. Model set matches IterateModels exactly; the
// call count is deterministic for any worker count when limit ≤ 0 (one
// SatSolver build per cube plus one CountCall per model, against the
// serial path's single build — wall-clock, not the count shape, is
// what changes). Yield order is nondeterministic.
func (e *Engine) enumerateModelsPar(limit int, opt ParOptions, yield func(logic.Interp) bool) {
	n := e.DB.N()
	k := min(n, enumCubeBits)
	em := &emitter{yield: yield, limit: limit}

	runCube := func(c int) {
		if em.done() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				em.halt() // budget trip: silence siblings before unwinding
				panic(r)
			}
		}()
		s := e.Ora.SatSolver(n, e.cnf)
		for b := 0; b < k; b++ {
			if !s.AddClause(sat.MkLit(b, c>>b&1 == 1)) {
				return // cube contradicts the database at level 0
			}
		}
		s.EnumerateModels(n, 0, func(model []bool) bool {
			e.Ora.CountCall()
			m := logic.NewInterp(n)
			for v := 0; v < n; v++ {
				m.True.SetTo(v, model[v])
			}
			return em.emit(m)
		})
		oracle.CheckEnumerate(s)
	}

	par.ForEach(opt.Workers, 1<<k, runCube)
}
