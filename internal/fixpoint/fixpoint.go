// Package fixpoint implements the monotone operators used by the
// tractable entries of the paper's tables:
//
//   - TUpOmega: the disjunctive consequence (hyperresolution) closure
//     T_DB↑ω, kept subsumption-reduced. The reduced closure is Minker's
//     *minimal state*: exactly the minimal positive clauses entailed by
//     a positive DDB, which characterises GCWA (x is false in all
//     minimal models iff x occurs in no minimal entailed positive
//     clause) — the test suite cross-validates GCWA against it.
//     NOTE: the DDR/WGCWA semantics is defined over the UNREDUCED
//     closure (Example 3.1 requires the subsumed derivation c∨a∨b to
//     count as an occurrence of c); the atom set of the unreduced
//     closure equals the PossiblyTrue least fixpoint below, which is
//     what package ddr uses. The reduced state can be exponentially
//     large; TUpOmega is for analysis and tests, not the inference
//     fast path.
//
//   - LeastModel: the van Emden–Kowalski least model of a definite
//     program (used by the session layer's definite and Horn
//     fragment fast paths).
//
//   - PossiblyTrue: the polynomial "atom occurs in some possible model"
//     closure for positive databases without integrity clauses, the
//     basis of the tractable PWS literal-inference cell of Table 1.
package fixpoint

import (
	"sort"

	"disjunct/internal/bitset"
	"disjunct/internal/db"
	"disjunct/internal/logic"
)

// Disjunction is a sorted set of atoms representing a1 ∨ … ∨ an.
type Disjunction []logic.Atom

func (d Disjunction) key() string {
	b := make([]byte, 0, 4*len(d))
	for _, a := range d {
		b = append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	return string(b)
}

// subsumes reports whether d ⊆ e (d subsumes e as a disjunction).
func (d Disjunction) subsumes(e Disjunction) bool {
	i := 0
	for _, a := range e {
		if i < len(d) && d[i] == a {
			i++
		}
	}
	return i == len(d)
}

// State is a set of disjunctions closed under subsumption reduction
// (no disjunction subsumed by a smaller one is kept).
type State struct {
	ds   []Disjunction
	seen map[string]bool
}

// NewState returns an empty state.
func NewState() *State {
	return &State{seen: make(map[string]bool)}
}

// Disjunctions returns the state's disjunctions.
func (s *State) Disjunctions() []Disjunction { return s.ds }

// Len returns the number of disjunctions.
func (s *State) Len() int { return len(s.ds) }

// add inserts a disjunction unless it is subsumed by an existing one;
// existing disjunctions subsumed by it are removed. Reports whether the
// state changed.
func (s *State) add(d Disjunction) bool {
	d = normalize(d)
	if s.seen[d.key()] {
		return false
	}
	for _, e := range s.ds {
		if e.subsumes(d) {
			return false
		}
	}
	kept := s.ds[:0]
	for _, e := range s.ds {
		if d.subsumes(e) {
			delete(s.seen, e.key())
		} else {
			kept = append(kept, e)
		}
	}
	s.ds = append(kept, d)
	s.seen[d.key()] = true
	return true
}

func normalize(d Disjunction) Disjunction {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	out := d[:0]
	for i, a := range d {
		if i == 0 || a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// Atoms returns the set of atoms occurring in some disjunction of the
// state — the set whose complement DDR declares false.
func (s *State) Atoms(n int) *bitset.Set {
	out := bitset.New(n)
	for _, d := range s.ds {
		for _, a := range d {
			out.Set(int(a))
		}
	}
	return out
}

// TUpOmega computes the subsumption-reduced hyperresolution closure
// (Minker's minimal state) of a positive database. Negative body
// literals and integrity clauses are ignored. maxWidth caps the length
// of derived disjunctions (0 = number of atoms, at which the cap never
// bites after deduplication).
func TUpOmega(d *db.DB, maxWidth int) *State {
	if maxWidth <= 0 {
		maxWidth = d.N()
	}
	st := NewState()
	// Seed: disjunctive facts.
	rules := make([]db.Clause, 0, len(d.Clauses))
	for _, c := range d.Clauses {
		if c.IsIntegrity() || len(c.NegBody) > 0 {
			continue // DDR ignores integrity clauses; negation unsupported
		}
		if c.IsFact() {
			st.add(append(Disjunction(nil), c.Head...))
		} else {
			rules = append(rules, c)
		}
	}
	// Hyperresolution to fixpoint: for a rule H ← b1∧…∧bk pick
	// disjunctions D1,…,Dk from the state with bj ∈ Dj and derive
	// H ∨ (D1−b1) ∨ … ∨ (Dk−bk).
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if deriveRule(st, r, maxWidth) {
				changed = true
			}
		}
	}
	return st
}

// deriveRule applies one rule against all tuples of state disjunctions
// containing its body atoms. Returns whether the state grew.
func deriveRule(st *State, r db.Clause, maxWidth int) bool {
	k := len(r.PosBody)
	// Candidate disjunctions per body atom (indices into st.ds).
	choices := make([][]int, k)
	for j, b := range r.PosBody {
		for i, d := range st.ds {
			if containsAtom(d, b) {
				choices[j] = append(choices[j], i)
			}
		}
		if len(choices[j]) == 0 {
			return false
		}
	}
	changed := false
	idx := make([]int, k)
	// Snapshot length: only combine pre-existing disjunctions this
	// round; new ones are picked up in the next outer iteration.
	for {
		derived := append(Disjunction(nil), r.Head...)
		for j := 0; j < k; j++ {
			d := st.ds[choices[j][idx[j]]]
			for _, a := range d {
				if a != r.PosBody[j] {
					derived = append(derived, a)
				}
			}
		}
		derived = normalize(derived)
		if len(derived) <= maxWidth && st.add(derived) {
			changed = true
			// st.ds mutated: restart enumeration conservatively.
			return true
		}
		// Advance the index vector.
		j := k - 1
		for ; j >= 0; j-- {
			idx[j]++
			if idx[j] < len(choices[j]) {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			return changed
		}
	}
}

func containsAtom(d Disjunction, a logic.Atom) bool {
	for _, x := range d {
		if x == a {
			return true
		}
	}
	return false
}

// LeastModel computes the least Herbrand model of a definite positive
// program (every clause must have exactly one head atom and no
// negation; integrity clauses and wider heads cause a panic — callers
// split disjunctive heads first). Linear-time unit propagation.
func LeastModel(d *db.DB) logic.Interp {
	for _, c := range d.Clauses {
		if len(c.Head) != 1 || len(c.NegBody) != 0 {
			panic("fixpoint: LeastModel requires a definite program")
		}
	}
	return logic.Interp{True: closure(d)}
}

// PossiblyTrue computes, for a positive database without integrity
// clauses, the set of atoms true in at least one possible model
// (equivalently: the least model of the "all heads enabled" split
// program). An atom x is PWS-false — PWS(DB) ⊨ ¬x — iff x is outside
// this set; this is the polynomial literal-inference algorithm for the
// PWS cell of Table 1.
func PossiblyTrue(d *db.DB) *bitset.Set { return closure(d) }

// closure returns the least atom set closed under d's clauses that have
// a head and no negation: once such a clause's positive body is in the
// set, all its head atoms are. Each clause counts down its body atoms
// as they enter (Dowling–Gallier), so the closure takes time linear in
// the size of d, also on a long chain that a round-robin sweep over the
// clauses would cross one atom per pass.
func closure(d *db.DB) *bitset.Set {
	m := logic.NewInterp(d.N())
	waiting := make([]int, len(d.Clauses)) // body atoms of clause r not yet in the set
	occurs := make([][]int, d.N())         // occurs[b]: the clauses with b in their positive body
	var queue []logic.Atom
	enter := func(r int) {
		for _, h := range d.Clauses[r].Head {
			if !m.Holds(h) {
				m.True.Set(int(h))
				queue = append(queue, h)
			}
		}
	}
	for r, c := range d.Clauses {
		if c.IsIntegrity() || len(c.NegBody) > 0 {
			continue
		}
		waiting[r] = len(c.PosBody)
		for _, b := range c.PosBody {
			occurs[b] = append(occurs[b], r)
		}
		if waiting[r] == 0 {
			enter(r)
		}
	}
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range occurs[b] {
			if waiting[r]--; waiting[r] == 0 {
				enter(r)
			}
		}
	}
	return m.True
}
