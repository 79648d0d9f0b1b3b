// Package plan is the cost-based query planner: it classifies each
// incoming query into a cost class before admission — from the
// semantics' complexity cells (core.Info.Cells), the session layer's
// fragment classifier, and compiled-DB size features — maintains an
// in-process per-(fingerprint, semantics) estimate of mean NP calls
// (a count and a sum, calibrated online from the counters every
// completed query produces; nothing persists it or ships it to another
// node), and picks the cheapest correct procedure: the fixpoint fast
// path, a warm session, the fresh parallel enumeration, or brute-force
// refsem construction for tiny instances the estimate has read as
// expensive. Exactly one procedure answers each query. Class and
// estimate feed the serve layer's admission control so overload sheds
// expensive (Σ₂ᵖ-class, cold, high-estimate) queries first instead of
// FIFO.
package plan

import (
	"sync/atomic"

	"disjunct/internal/core"
	"disjunct/internal/session"
)

// Class is the planner's cost tier for one (query kind, semantics,
// fragment) combination — the machine-readable complexity cells
// collapsed onto the three levels that matter for routing and
// shedding.
type Class int

const (
	// ClassPoly: answered in polynomial time — a fragment fast path
	// applies, or the general-fragment cell is P.
	ClassPoly Class = iota
	// ClassNP: one NP-oracle level (NP or coNP cell).
	ClassNP
	// ClassSigma2: second level of the polynomial hierarchy (Σᵖ₂/Πᵖ₂
	// cell) — the shed-first tier under overload.
	ClassSigma2
)

// String returns the wire name used in /healthz and bench reports.
func (c Class) String() string {
	switch c {
	case ClassPoly:
		return "poly"
	case ClassNP:
		return "np"
	default:
		return "sigma2"
	}
}

// Proc is the procedure the planner routes a query to.
type Proc int

const (
	// ProcFast: the fragment fixpoint fast path (zero NP calls).
	ProcFast Proc = iota
	// ProcWarm: the warm-session layer (memo + incremental engine).
	ProcWarm
	// ProcFresh: the fresh parallel enumeration engine.
	ProcFresh
	// ProcBrute: explicit refsem model-set construction — no oracle at
	// all; correct and fast only on tiny instances.
	ProcBrute
)

// String returns the wire name used in /healthz and bench reports.
func (p Proc) String() string {
	switch p {
	case ProcFast:
		return "fast"
	case ProcWarm:
		return "warm"
	case ProcFresh:
		return "fresh"
	default:
		return "brute"
	}
}

// Decision is the planner's verdict for one query, computed before
// admission: the cost class (drives cost-aware shedding), the chosen
// procedure (drives execution routing), and the estimate it was based
// on, if one existed.
type Decision struct {
	Class   Class
	Proc    Proc
	HaveEst bool  // a calibrated estimate existed for (fingerprint, semantics)
	EstNP   int64 // mean NP calls per query, when HaveEst
}

// Config tunes the planner. Zero values pick the defaults.
type Config struct {
	// BruteMaxAtoms caps the instance size (ground atoms) for the brute
	// procedure. Default 8: 2⁸ interpretations
	// enumerate in microseconds; beyond that the solver-backed paths
	// win. Hard-capped at 16 regardless of configuration.
	BruteMaxAtoms int
	// ExpensiveNP is the mean-NP-calls threshold that marks an
	// estimate expensive: ≥ 2× routes a brute-eligible query to brute,
	// and > 1× marks the query shed-eligible under overload. Default 8.
	ExpensiveNP int64
	// ShedOccupancy is the queue-occupancy fraction above which
	// cost-aware shedding engages; below it the planner never sheds.
	// Default 0.5.
	ShedOccupancy float64
}

func (c Config) withDefaults() Config {
	if c.BruteMaxAtoms == 0 {
		c.BruteMaxAtoms = 8
	}
	if c.BruteMaxAtoms > bruteHardCap {
		c.BruteMaxAtoms = bruteHardCap
	}
	if c.ExpensiveNP == 0 {
		c.ExpensiveNP = 8
	}
	if c.ShedOccupancy == 0 {
		c.ShedOccupancy = 0.5
	}
	return c
}

// Planner holds the cost model and decision counters for one server.
type Planner struct {
	cfg Config
	est *Estimator

	decisions   atomic.Int64
	estServed   atomic.Int64
	routedFast  atomic.Int64
	routedWarm  atomic.Int64
	routedFresh atomic.Int64
	routedBrute atomic.Int64
	shedCost    atomic.Int64
}

// New builds a planner with an empty estimator.
func New(cfg Config) *Planner {
	return &Planner{cfg: cfg.withDefaults(), est: newEstimator()}
}

// ClassOf maps a query onto its cost tier: the fragment fast path
// collapses everything it answers to polynomial; otherwise the
// semantics' complexity cell for the query kind decides, degrading to
// Σ₂ᵖ (worst case) for unknown semantics or unpopulated cells.
func ClassOf(comp *session.Compiled, sem string, kind session.Kind) Class {
	if session.FastEligible(comp, sem, kind) {
		return ClassPoly
	}
	info, ok := core.InfoFor(sem)
	if !ok {
		return ClassSigma2
	}
	switch info.Cell(kind.String()) {
	case core.CellP:
		return ClassPoly
	case core.CellNP, core.CellCoNP:
		return ClassNP
	default:
		return ClassSigma2
	}
}

// Decide picks the cheapest correct procedure for one query. The
// ladder, cheapest first:
//
//   - fragment fast path when the allowlist answers (zero NP calls);
//   - fresh for remaining polynomial cells (no solver races needed);
//   - warm session for the minimal-model family (memo + incremental
//     engine beat any cold procedure on hot keys);
//   - for the rest, brute when the instance is tiny and supported and
//     its calibrated estimate is at least 2×ExpensiveNP, fresh
//     otherwise — cold queries included, so the cost model learns
//     from fresh's real counters.
func (p *Planner) Decide(comp *session.Compiled, sem string, kind session.Kind) Decision {
	p.decisions.Add(1)
	d := Decision{Class: ClassOf(comp, sem, kind)}
	if e, ok := p.est.estimate(comp.Raw, sem); ok {
		d.HaveEst, d.EstNP = true, e.meanNP()
		p.estServed.Add(1)
	}
	switch {
	case session.FastEligible(comp, sem, kind):
		d.Proc = ProcFast
	case d.Class == ClassPoly:
		// Polynomial cell without a fast path (e.g. DDR existence):
		// the fresh engine answers it without search.
		d.Proc = ProcFresh
	case session.WarmEligible(sem, kind):
		d.Proc = ProcWarm
	case d.HaveEst && d.EstNP >= 2*p.cfg.ExpensiveNP && BruteEligible(comp, sem, p.cfg.BruteMaxAtoms):
		d.Proc = ProcBrute
	default:
		d.Proc = ProcFresh
	}
	switch d.Proc {
	case ProcFast:
		p.routedFast.Add(1)
	case ProcWarm:
		p.routedWarm.Add(1)
	case ProcFresh:
		p.routedFresh.Add(1)
	case ProcBrute:
		p.routedBrute.Add(1)
	}
	return d
}

// ShouldShed reports whether a query should be cost-shed given the
// admission queue's current occupancy (queued of bound). Below the
// occupancy threshold nothing sheds — cost-aware admission only
// changes behavior under overload. Above it, the expensive tier goes
// first: Σ₂ᵖ-class queries that are cold or whose estimate exceeds
// ExpensiveNP. Polynomial and brute-routed queries are never shed —
// they cost (nearly) nothing and shedding them can only lose
// throughput. The caller records the planner's shed count via
// CountShed when it acts on a true return.
func (p *Planner) ShouldShed(d Decision, queued, bound int) bool {
	if bound <= 0 || float64(queued) < p.cfg.ShedOccupancy*float64(bound) {
		return false
	}
	return p.Expensive(d)
}

// Expensive reports whether a decision falls in the expensive tier:
// Σ₂ᵖ-class work that is cold or whose estimate exceeds ExpensiveNP,
// with no cheap procedure (fast path or brute reference) to rescue it.
// This is the tier ShouldShed sheds under queue pressure and the tier
// the admission layer's bulkhead caps concurrently — an expensive
// query holds an execution slot for seconds, so letting the tier take
// every slot starves the microsecond traffic behind it.
func (p *Planner) Expensive(d Decision) bool {
	if d.Proc == ProcFast || d.Proc == ProcBrute || d.Class == ClassPoly {
		return false
	}
	if d.Class != ClassSigma2 {
		return false
	}
	return !d.HaveEst || d.EstNP > p.cfg.ExpensiveNP
}

// CountShed records one cost shed acted upon by the admission layer.
func (p *Planner) CountShed() { p.shedCost.Add(1) }

// BruteMaxAtoms exposes the configured (defaulted, hard-capped) brute
// instance bound for the execution layer's eligibility re-checks.
func (p *Planner) BruteMaxAtoms() int { return p.cfg.BruteMaxAtoms }

// Observe folds one completed query's measured cost into the mean for
// its (fingerprint, semantics) key.
func (p *Planner) Observe(raw, sem string, c Cost) { p.est.observe(raw, sem, c) }

// Stats is the /healthz planner section.
func (p *Planner) Stats() map[string]int64 {
	return map[string]int64{
		"decisions":        p.decisions.Load(),
		"estimates_served": p.estServed.Load(),
		"estimate_entries": int64(p.est.len()),
		"observations":     p.est.observations.Load(),
		"routed_fast":      p.routedFast.Load(),
		"routed_warm":      p.routedWarm.Load(),
		"routed_fresh":     p.routedFresh.Load(),
		"routed_brute":     p.routedBrute.Load(),
		"shed_cost":        p.shedCost.Load(),
	}
}
