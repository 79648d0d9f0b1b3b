// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver from scratch: two-watched-literal propagation, first-UIP
// conflict analysis with clause minimisation, VSIDS-style activity
// ordering, Luby restarts, phase saving, and solving under assumptions.
//
// Problem and learnt clauses live in one flat literal arena and are
// referenced by offset (MiniSat's clause allocator), so loading a CNF
// into a Reset solver allocates nothing once the arena is warm, and a
// loaded solver is copied with a handful of copy calls (CopyFrom).
//
// The solver is the NP oracle of this library: every membership
// algorithm for an NP/coNP/Σ₂ᵖ/Π₂ᵖ table cell bottoms out in calls to
// Solver.Solve. Literals use the same encoding as package logic
// (2*v for positive, 2*v+1 for negative).
package sat

import (
	"errors"
	"math"

	"disjunct/internal/budget"
)

// Lit is a solver literal, 2*v (positive) or 2*v+1 (negative).
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, positive bool) Lit {
	l := Lit(2 * v)
	if !positive {
		l++
	}
	return l
}

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// IsPos reports whether l is positive.
func (l Lit) IsPos() bool { return l&1 == 0 }

// Neg returns the complement of l.
func (l Lit) Neg() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// cref is a clause reference: the arena offset of the clause header.
// A clause occupies arena[c] (header: size<<2 | deleted<<1 | learnt),
// its literals arena[c+1 : c+1+size], and, when learnt, two more words
// holding the bits of its float64 activity.
type cref uint32

// crefUndef is the null clause reference (no reason, no conflict).
const crefUndef cref = math.MaxUint32

// Clause header flags.
const (
	hdrLearnt  = 1
	hdrDeleted = 2
)

// watcher pairs a clause reference with a "blocker" literal that is
// checked before touching the clause (cache-friendly early exit).
type watcher struct {
	cref    cref
	blocker Lit
}

// Status is the result of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unknown means the solver stopped before reaching a verdict
	// (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrBudget is returned by Solve when the conflict budget set with
// SetConflictBudget is exhausted.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// Stats holds cumulative solver statistics.
type Stats struct {
	Solves       int64 // number of Solve calls
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64 // clauses learnt
	Restarts     int64
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New. A Solver is not safe for concurrent use.
type Solver struct {
	nVars   int
	arena   []Lit  // every problem and learnt clause, see cref
	wasted  int    // arena words of deleted clauses, reclaimed by compact
	learnts []cref // learnt clauses in creation order

	watches [][]watcher // indexed by literal

	assign  []lbool // indexed by variable
	level   []int32 // decision level of assignment
	reason  []cref
	trail   []Lit
	trailLn []int32 // trail length at each decision level (index = level)
	qhead   int

	activity  []float64
	varInc    float64
	order     *varHeap
	phase     []bool // saved phase
	seen      []bool // scratch for analyze
	litMark   []bool // scratch for AddClause, indexed by literal; all false between calls
	assumed   []bool // scratch for analyzeFinal*, indexed by variable; all false between calls
	claInc    float64
	maxLearnt float64

	okay bool // false once a top-level conflict is found

	model     []lbool // snapshot of the last satisfying assignment
	finalConf []Lit   // failed assumptions of the last Unsat-under-assumptions

	budget     int64 // remaining conflicts before Unknown; <0 = unlimited
	bres       *budget.B
	stopErr    error // typed cause of the last Unknown result
	propsDebit int64 // stats.Propagations already charged to bres
	noRestarts bool
	stats      Stats
	scratch    struct {
		learnt  []Lit
		toClear []int
		clause  []Lit      // AddClause's normalised literals before they are stored
		acts    []float64  // reduceDB's learnt activities
		reloc   []relocate // compact's moves, by ascending old offset
	}
}

// relocate records that compact moved a clause from old to new.
type relocate struct{ old, new cref }

// New returns a solver over nVars variables (indices 0..nVars-1).
func New(nVars int) *Solver {
	s := &Solver{
		varInc:    1,
		claInc:    1,
		maxLearnt: 4000,
		okay:      true,
		budget:    -1,
	}
	s.order = newVarHeap(&s.activity)
	s.grow(nVars)
	return s
}

// grow extends the solver to at least n variables.
func (s *Solver) grow(n int) {
	if n <= s.nVars {
		return
	}
	s.resizeWatches(2 * n)
	for len(s.litMark) < 2*n {
		s.litMark = append(s.litMark, false)
	}
	for v := s.nVars; v < n; v++ {
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, crefUndef)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, false)
		s.seen = append(s.seen, false)
		s.assumed = append(s.assumed, false)
	}
	s.nVars = n
	if s.order == nil {
		s.order = newVarHeap(&s.activity)
	}
	for v := 0; v < n; v++ {
		s.order.insert(v)
	}
}

// resizeWatches sets len(s.watches) to n. Buckets that come back into
// range from the spare capacity are emptied but keep their backing
// arrays, so a solver reused for a smaller instance walks only its own
// 2·nVars buckets while a larger one later reuses the warm memory.
func (s *Solver) resizeWatches(n int) {
	for len(s.watches) < n {
		if len(s.watches) == cap(s.watches) {
			s.watches = append(s.watches, nil)
			continue
		}
		s.watches = s.watches[:len(s.watches)+1]
		last := len(s.watches) - 1
		s.watches[last] = s.watches[last][:0]
	}
	s.watches = s.watches[:n]
}

// Reset returns the solver to the state of a fresh New(nVars) while
// keeping every allocation it has accumulated: the clause arena, the
// watcher buckets, the per-variable arrays (assignment, level, reason,
// activity, phase, seen), the trail, the activity heap, and the
// analysis scratch all retain their capacity. Problem and learnt
// clauses are dropped.
//
// Reset is the reuse path of the oracle's solver pool: loading a CNF
// into a Reset solver touches only already-warm memory instead of
// reallocating watcher lists per query. It restores the default
// conflict budget and restart policy.
func (s *Solver) Reset(nVars int) {
	s.watches = s.watches[:0]
	s.arena = s.arena[:0]
	s.wasted = 0
	s.learnts = s.learnts[:0]
	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.activity = s.activity[:0]
	s.phase = s.phase[:0]
	s.seen = s.seen[:0]
	s.assumed = s.assumed[:0]
	s.litMark = s.litMark[:0]
	s.trail = s.trail[:0]
	s.trailLn = s.trailLn[:0]
	s.qhead = 0
	s.varInc = 1
	s.claInc = 1
	s.maxLearnt = 4000
	s.okay = true
	s.model = s.model[:0]
	s.finalConf = s.finalConf[:0]
	s.budget = -1
	s.bres = nil
	s.stopErr = nil
	s.propsDebit = 0
	s.noRestarts = false
	s.stats = Stats{}
	s.order.clear()
	s.nVars = 0
	s.grow(nVars)
}

// CopyFrom makes s an exact copy of src, reusing s's capacity: the
// clause arena and learnt list, the watches, the assignment, level,
// reason and trail, the activity heap, phases and activities, the
// okay flag, the last result and Stats. src must be outside Solve (at
// decision level 0), as every solver between calls is. Adding clauses
// C to the copy and solving it then behaves exactly as src would:
// same verdicts, models, FinalConflict and Stats.
//
// The budget attached to s with SetBudget stays attached, and every
// propagation src has not charged to a budget (those of loading it)
// counts as not yet charged, as on a solver loaded after SetBudget.
// The conflict budget and the restart setting are copied from src.
func (s *Solver) CopyFrom(src *Solver) {
	if len(src.trailLn) != 0 {
		panic("sat: CopyFrom of a solver inside Solve")
	}
	s.nVars = src.nVars
	s.arena = append(s.arena[:0], src.arena...)
	s.wasted = src.wasted
	s.learnts = append(s.learnts[:0], src.learnts...)
	s.resizeWatches(len(src.watches))
	for i, ws := range src.watches {
		s.watches[i] = append(s.watches[i][:0], ws...)
	}
	s.assign = append(s.assign[:0], src.assign...)
	s.level = append(s.level[:0], src.level...)
	s.reason = append(s.reason[:0], src.reason...)
	s.trail = append(s.trail[:0], src.trail...)
	s.trailLn = s.trailLn[:0]
	s.qhead = src.qhead
	s.activity = append(s.activity[:0], src.activity...)
	s.varInc = src.varInc
	s.order.heap = append(s.order.heap[:0], src.order.heap...)
	s.order.index = append(s.order.index[:0], src.order.index...)
	s.phase = append(s.phase[:0], src.phase...)
	s.seen = append(s.seen[:0], src.seen...)
	s.assumed = append(s.assumed[:0], src.assumed...)
	s.litMark = append(s.litMark[:0], src.litMark...)
	s.claInc = src.claInc
	s.maxLearnt = src.maxLearnt
	s.okay = src.okay
	s.model = append(s.model[:0], src.model...)
	s.finalConf = append(s.finalConf[:0], src.finalConf...)
	s.budget = src.budget
	s.stopErr = src.stopErr
	s.propsDebit = src.propsDebit
	s.noRestarts = src.noRestarts
	s.stats = src.stats
}

// Trim releases the spare capacity the solver's slices accumulated
// while growing, and its analysis scratch, for a solver that may sit
// idle between calls: every slice is copied down to its length, so
// the state — and every later verdict, model and Stats — is exactly
// that of the untrimmed solver. The next growth reallocates.
func (s *Solver) Trim() {
	if len(s.trailLn) != 0 {
		panic("sat: Trim of a solver inside Solve")
	}
	s.arena = clip(s.arena)
	s.learnts = clip(s.learnts)
	s.watches = clip(s.watches)
	for i, ws := range s.watches {
		s.watches[i] = clip(ws)
	}
	s.assign = clip(s.assign)
	s.level = clip(s.level)
	s.reason = clip(s.reason)
	s.trail = clip(s.trail)
	s.trailLn = nil
	s.activity = clip(s.activity)
	s.order.heap = clip(s.order.heap)
	s.order.index = clip(s.order.index)
	s.phase = clip(s.phase)
	s.seen = clip(s.seen)
	s.litMark = clip(s.litMark)
	s.assumed = clip(s.assumed)
	s.model = clip(s.model)
	s.finalConf = clip(s.finalConf)
	s.scratch.learnt, s.scratch.toClear, s.scratch.clause = nil, nil, nil
	s.scratch.acts, s.scratch.reloc = nil, nil
}

// clip returns xs with no spare capacity, copying only when it has
// some; an empty slice becomes nil.
func clip[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	if len(xs) == cap(xs) {
		return xs
	}
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return s.nVars }

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.nVars
	s.grow(v + 1)
	return v
}

// Stats returns a copy of the cumulative statistics.
func (s *Solver) Stats() Stats { return s.stats }

// SetConflictBudget limits the total number of conflicts across
// subsequent Solve calls; pass a negative value for no limit.
func (s *Solver) SetConflictBudget(n int64) { s.budget = n }

// SetBudget attaches a shared query budget. Solve polls it at
// conflict, restart, and (sampled) decision boundaries and returns
// Unknown with StopCause set when it trips. A nil budget (the
// default) imposes no limit.
func (s *Solver) SetBudget(b *budget.B) {
	s.bres = b
	s.propsDebit = s.stats.Propagations
}

// StopCause returns the typed reason the most recent Solve call
// returned Unknown (budget.ErrCanceled, budget.ErrDeadline,
// budget.ErrConflictBudget, budget.ErrPropagationBudget, or the
// legacy ErrBudget), or nil if the last call reached a verdict.
func (s *Solver) StopCause() error { return s.stopErr }

// chargeProps debits propagations performed since the last charge
// against the attached budget.
func (s *Solver) chargeProps() error {
	if s.bres == nil {
		return nil
	}
	d := s.stats.Propagations - s.propsDebit
	if d == 0 {
		return nil
	}
	s.propsDebit = s.stats.Propagations
	return s.bres.ChargeProps(d)
}

// SetRestartsEnabled toggles the Luby restart policy (enabled by
// default). Disabling it is the restart ablation of the benchmark
// suite; the solver remains complete either way.
func (s *Solver) SetRestartsEnabled(on bool) { s.noRestarts = !on }

// value returns the current value of a literal.
func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.IsPos() == (v == lTrue) {
		return lTrue
	}
	return lFalse
}

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLn) }

// AddClause adds a problem clause. Adding is only allowed at decision
// level 0 (i.e. outside Solve). It returns false if the solver is
// already in an unsatisfiable top-level state.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	// Normalise: drop duplicates and false literals, detect tautologies
	// and top-level satisfaction. Kept literals are marked in litMark
	// and collected in first-occurrence order; every return path
	// unmarks them, so litMark is all false again for the next call.
	cl := s.scratch.clause[:0]
	for _, l := range lits {
		if l.Var() >= s.nVars {
			s.grow(l.Var() + 1)
		}
		switch s.value(l) {
		case lTrue:
			s.unmark(cl)
			return true // clause already satisfied at top level
		case lFalse:
			continue // literal can never help
		}
		if s.litMark[l.Neg()] {
			s.unmark(cl)
			return true // tautology
		}
		if !s.litMark[l] {
			s.litMark[l] = true
			cl = append(cl, l)
		}
	}
	s.unmark(cl)
	switch len(cl) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.uncheckedEnqueue(cl[0], crefUndef)
		if s.propagate() != crefUndef {
			s.okay = false
			return false
		}
		return true
	}
	s.attach(s.alloc(cl, false))
	return true
}

// alloc stores a clause in the arena and returns its reference.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	hdr := Lit(len(lits)) << 2
	if learnt {
		hdr |= hdrLearnt
	}
	s.arena = append(s.arena, hdr)
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0) // activity 0
	}
	return c
}

// lits returns the literals of clause c, aliasing the arena: the
// slice is invalidated by the next alloc or compact.
func (s *Solver) lits(c cref) []Lit {
	return s.arena[c+1 : c+1+cref(s.arena[c]>>2)]
}

// words returns the number of arena words clause c occupies.
func (s *Solver) words(c cref) int {
	h := s.arena[c]
	return 1 + int(h>>2) + 2*int(h&hdrLearnt)
}

// clauseAct returns the activity of learnt clause c.
func (s *Solver) clauseAct(c cref) float64 {
	i := c + 1 + cref(s.arena[c]>>2)
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

// setClauseAct sets the activity of learnt clause c.
func (s *Solver) setClauseAct(c cref, a float64) {
	i := c + 1 + cref(s.arena[c]>>2)
	b := math.Float64bits(a)
	s.arena[i] = Lit(uint32(b))
	s.arena[i+1] = Lit(uint32(b >> 32))
}

// unmark clears AddClause's marks on cl and keeps cl's storage as the
// scratch buffer for the next call.
func (s *Solver) unmark(cl []Lit) {
	for _, l := range cl {
		s.litMark[l] = false
	}
	s.scratch.clause = cl[:0]
}

func (s *Solver) attach(c cref) {
	l0, l1 := s.arena[c+1], s.arena[c+2]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{c, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{c, l0})
}

// uncheckedEnqueue records the assignment l=true with the given reason.
func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assign[v] = boolToLbool(l.IsPos())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting
// clause, or crefUndef if no conflict was found.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		out := ws[:0]
		n := len(ws)
	nextWatcher:
		for i := 0; i < n; i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				out = append(out, w)
				continue
			}
			c := w.cref
			lits := s.lits(c)
			// Ensure the false literal (¬p) is at position 1.
			np := p.Neg()
			if lits[0] == np {
				lits[0], lits[1] = lits[1], np
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				out = append(out, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := lits[1].Neg()
					s.watches[nl] = append(s.watches[nl], watcher{c, first})
					continue nextWatcher
				}
			}
			// No new watch: clause is unit or conflicting.
			out = append(out, watcher{c, first})
			if s.value(first) == lFalse {
				// Conflict: copy the remaining watchers back.
				for i++; i < n; i++ {
					out = append(out, ws[i])
				}
				s.watches[p] = out
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = out
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, filling
// s.scratch.learnt with the learnt clause (asserting literal first) and
// returning the backtrack level.
func (s *Solver) analyze(confl cref) int {
	learnt := s.scratch.learnt[:0]
	learnt = append(learnt, 0) // placeholder for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to look at.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Clause minimisation: drop literals implied by the rest.
	s.scratch.toClear = s.scratch.toClear[:0]
	for _, l := range learnt {
		s.seen[l.Var()] = true
		s.scratch.toClear = append(s.scratch.toClear, l.Var())
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if r := s.reason[learnt[i].Var()]; r == crefUndef || !s.redundant(r) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Compute backtrack level = second-highest level in the clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}

	// Clear every seen flag set in this analysis, including those of
	// literals dropped by minimisation.
	for _, v := range s.scratch.toClear {
		s.seen[v] = false
	}
	s.scratch.toClear = s.scratch.toClear[:0]
	s.scratch.learnt = learnt
	return bt
}

// redundant reports whether every literal of the reason clause r (other
// than its asserting literal) is already marked seen or implied at level
// 0 — a cheap, local version of recursive minimisation.
func (s *Solver) redundant(r cref) bool {
	for _, q := range s.lits(r)[1:] {
		v := q.Var()
		if !s.seen[v] && s.level[v] != 0 {
			return false
		}
	}
	return true
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := int(s.trailLn[level])
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = crefUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:lim]
	s.trailLn = s.trailLn[:level]
	s.qhead = lim
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c cref) {
	if s.arena[c]&hdrLearnt == 0 {
		return
	}
	a := s.clauseAct(c) + s.claInc
	s.setClauseAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setClauseAct(lc, s.clauseAct(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

// pickBranchVar returns the unassigned variable with highest activity,
// or -1 if all variables are assigned.
func (s *Solver) pickBranchVar() int {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes roughly half of the learnt clauses, lowest activity
// first, keeping reasons and binary clauses. Once the deleted clauses
// occupy more of the arena than the live ones, compact reclaims them.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	// Partial selection: find median activity by simple nth-element scan.
	acts := s.scratch.acts[:0]
	for _, c := range s.learnts {
		acts = append(acts, s.clauseAct(c))
	}
	s.scratch.acts = acts
	med := quickMedian(acts)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.arena[c]>>2 <= 2 || s.clauseAct(c) >= med || s.isReason(c) {
			kept = append(kept, c)
		} else {
			s.detach(c)
			s.arena[c] |= hdrDeleted
			s.wasted += s.words(c)
		}
	}
	s.learnts = kept
	if s.wasted > len(s.arena)-s.wasted {
		s.compact()
	}
}

// compact slides the live clauses down over the deleted ones, keeping
// their arena order, and rewrites every reference to them: watchers,
// reasons and the learnt list. Only offsets change, so the search
// proceeds exactly as without compaction.
func (s *Solver) compact() {
	reloc := s.scratch.reloc[:0]
	j := 0
	for i := 0; i < len(s.arena); {
		w := s.words(cref(i))
		if s.arena[i]&hdrDeleted == 0 {
			reloc = append(reloc, relocate{cref(i), cref(j)})
			copy(s.arena[j:j+w], s.arena[i:i+w])
			j += w
		}
		i += w
	}
	s.arena = s.arena[:j]
	s.wasted = 0
	s.scratch.reloc = reloc
	moved := func(c cref) cref {
		lo, hi := 0, len(reloc)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if reloc[m].old < c {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return reloc[lo].new
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].cref = moved(ws[i].cref)
		}
	}
	for v, r := range s.reason {
		if r != crefUndef {
			s.reason[v] = moved(r)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = moved(c)
	}
}

func (s *Solver) isReason(c cref) bool {
	v := s.arena[c+1].Var()
	return s.assign[v] != lUndef && s.reason[v] == c
}

func (s *Solver) detach(c cref) {
	for _, l := range [2]Lit{s.arena[c+1], s.arena[c+2]} {
		ws := s.watches[l.Neg()]
		for i, w := range ws {
			if w.cref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l.Neg()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func quickMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Simple in-place quickselect for the median.
	k := len(xs) / 2
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// On Sat, Model reports the found assignment; on Unsat under
// assumptions, FinalConflict lists a subset of assumptions that is
// jointly unsatisfiable with the formula.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.stats.Solves++
	s.stopErr = nil
	if !s.okay {
		return Unsat
	}
	if err := s.bres.Err(); err != nil {
		s.stopErr = err
		return Unknown
	}
	for _, a := range assumptions {
		if a.Var() >= s.nVars {
			s.grow(a.Var() + 1)
		}
	}
	defer s.cancelUntil(0)
	s.finalConf = s.finalConf[:0]

	var restarts int64
	conflictsAtRestart := int64(0)
	limit := luby(1) * 64

	for {
		confl := s.propagate()
		if err := s.chargeProps(); err != nil {
			s.stopErr = err
			return Unknown
		}
		if confl != crefUndef {
			s.stats.Conflicts++
			conflictsAtRestart++
			if s.budget == 0 {
				s.stopErr = ErrBudget
				return Unknown
			}
			if s.budget > 0 {
				s.budget--
			}
			if err := s.bres.ChargeConflicts(1); err != nil {
				s.stopErr = err
				return Unknown
			}
			if s.decisionLevel() <= len(assumptions) {
				// Conflict at assumption level: analyse which
				// assumptions are to blame, then fail.
				if s.decisionLevel() == 0 {
					s.okay = false
				} else {
					s.analyzeFinal(confl, assumptions)
				}
				return Unsat
			}
			bt := s.analyze(confl)
			if bt < len(assumptions) {
				bt = len(assumptions)
			}
			s.cancelUntil(bt)
			learnt := s.scratch.learnt
			if len(learnt) == 1 {
				// Unit learnt clause: enqueue directly. At level 0 this
				// is a permanent fact; above (clamped to the assumption
				// level) it holds for the rest of this Solve call.
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.alloc(learnt, true)
				s.learnts = append(s.learnts, c)
				s.stats.Learnt++
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			if float64(len(s.learnts)) > s.maxLearnt {
				s.reduceDB()
				s.maxLearnt *= 1.1
			}
			continue
		}

		// No conflict: restart?
		if !s.noRestarts && conflictsAtRestart >= limit && s.decisionLevel() > len(assumptions) {
			restarts++
			s.stats.Restarts++
			conflictsAtRestart = 0
			limit = luby(restarts+1) * 64
			if err := s.bres.Err(); err != nil {
				s.stopErr = err
				return Unknown
			}
			s.cancelUntil(len(assumptions))
			continue
		}

		// Enqueue pending assumptions as decisions.
		if dl := s.decisionLevel(); dl < len(assumptions) {
			a := assumptions[dl]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty level so that
				// decisionLevel tracks assumption count.
				s.trailLn = append(s.trailLn, int32(len(s.trail)))
			case lFalse:
				s.analyzeFinalLit(a, assumptions)
				return Unsat
			default:
				s.trailLn = append(s.trailLn, int32(len(s.trail)))
				s.uncheckedEnqueue(a, crefUndef)
			}
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			s.model = append(s.model[:0], s.assign...)
			return Sat
		}
		s.stats.Decisions++
		// Conflict-free searches never reach the boundary checks above,
		// so poll ctx/deadline on a sampled subset of decisions too.
		if s.stats.Decisions&255 == 0 {
			if err := s.bres.Err(); err != nil {
				s.stopErr = err
				return Unknown
			}
		}
		s.trailLn = append(s.trailLn, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, s.phase[v]), crefUndef)
	}
}

// markAssumed sets (on) or clears (off) the assumed mark of every
// assumption variable; analyzeFinal and analyzeFinalLit bracket their
// trail walk with it.
func (s *Solver) markAssumed(assumptions []Lit, on bool) {
	for _, a := range assumptions {
		s.assumed[a.Var()] = on
	}
}

// analyzeFinal computes the subset of assumptions responsible for the
// conflict clause confl, storing it in s.finalConf.
func (s *Solver) analyzeFinal(confl cref, assumptions []Lit) {
	s.finalConf = s.finalConf[:0]
	if s.decisionLevel() == 0 {
		return
	}
	s.markAssumed(assumptions, true)
	for _, l := range s.lits(confl) {
		if s.level[l.Var()] > 0 {
			s.seen[l.Var()] = true
		}
	}
	for i := len(s.trail) - 1; i >= int(s.trailLn[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == crefUndef {
			if s.assumed[v] {
				s.finalConf = append(s.finalConf, s.trail[i].Neg())
			}
		} else {
			for _, q := range s.lits(r) {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.markAssumed(assumptions, false)
}

// analyzeFinalLit handles the case where an assumption is directly
// falsified by earlier assumptions/propagation.
func (s *Solver) analyzeFinalLit(a Lit, assumptions []Lit) {
	s.finalConf = s.finalConf[:0]
	s.finalConf = append(s.finalConf, a)
	if s.decisionLevel() == 0 {
		return
	}
	s.markAssumed(assumptions, true)
	if s.level[a.Var()] > 0 {
		// A level-0 mark would outlive the walk, which stops at level 1.
		s.seen[a.Var()] = true
	}
	for i := len(s.trail) - 1; i >= int(s.trailLn[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == crefUndef {
			if s.assumed[v] && v != a.Var() {
				s.finalConf = append(s.finalConf, s.trail[i].Neg())
			}
		} else {
			for _, q := range s.lits(r) {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.markAssumed(assumptions, false)
}

// FinalConflict returns the failed-assumption set of the most recent
// Unsat-under-assumptions result: a subset A' of the assumptions such
// that the formula together with A' is unsatisfiable.
func (s *Solver) FinalConflict() []Lit {
	return append([]Lit(nil), s.finalConf...)
}

// Model returns the value of variable v in the most recent Sat result.
func (s *Solver) Model(v int) bool {
	return v < len(s.model) && s.model[v] == lTrue
}

// ModelLit reports whether literal l is true in the last model.
func (s *Solver) ModelLit(l Lit) bool {
	v := s.Model(l.Var())
	return v == l.IsPos()
}

// Okay reports whether the solver is still in a consistent top-level
// state (false after a clause set has been proven unsatisfiable).
func (s *Solver) Okay() bool { return s.okay }
