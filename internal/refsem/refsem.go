// Package refsem provides brute-force reference implementations of
// every semantics in the library, straight from the definitions in the
// paper, with no SAT solving and no cleverness: model sets are computed
// by exhaustive enumeration of the 2ⁿ interpretations (3ⁿ partial
// interpretations for PDSM). The test suites of the semantics packages
// cross-validate the production implementations against these on
// thousands of random small databases.
package refsem

import (
	"errors"
	"fmt"

	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/strat"
)

// ErrTooLarge is returned when an instance exceeds the exhaustive-
// enumeration caps (2ⁿ interpretations, 3ⁿ partials). Reference
// implementations fail cleanly instead of attempting the blowup.
var ErrTooLarge = errors.New("refsem: instance too large for exhaustive enumeration")

// AllInterps enumerates every interpretation over n atoms (n ≤ 22);
// larger n yields ErrTooLarge.
func AllInterps(n int) ([]logic.Interp, error) {
	if n > 22 {
		return nil, fmt.Errorf("%w: AllInterps over %d atoms (max 22)", ErrTooLarge, n)
	}
	out := make([]logic.Interp, 0, 1<<uint(n))
	for bits := 0; bits < 1<<uint(n); bits++ {
		m := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			if bits&(1<<uint(v)) != 0 {
				m.True.Set(v)
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// allInterps is AllInterps for the in-package reference semantics,
// which keep their historical panic-free-on-small-inputs signatures;
// the panic still carries the typed ErrTooLarge.
func allInterps(n int) []logic.Interp {
	out, err := AllInterps(n)
	if err != nil {
		panic(err)
	}
	return out
}

// Models returns M(DB): all classical models.
func Models(d *db.DB) []logic.Interp {
	var out []logic.Interp
	for _, m := range allInterps(d.N()) {
		if d.Sat(m) {
			out = append(out, m)
		}
	}
	return out
}

// MinimalModels returns MM(DB).
func MinimalModels(d *db.DB) []logic.Interp {
	return MinimalModelsPZ(d, nil, nil)
}

// pzLess reports whether a <(P;Z) b: a∩Q = b∩Q and a∩P ⊊ b∩P.
// nil p means P = V (and q ignored).
func pzLess(a, b logic.Interp, p, q map[int]bool) bool {
	n := a.N()
	strictly := false
	for v := 0; v < n; v++ {
		av, bv := a.Holds(logic.Atom(v)), b.Holds(logic.Atom(v))
		switch {
		case p == nil || p[v]:
			if av && !bv {
				return false
			}
			if !av && bv {
				strictly = true
			}
		case q[v]:
			if av != bv {
				return false
			}
		}
	}
	return strictly
}

// MinimalModelsPZ returns MM(DB;P;Z) for the partition given as atom
// sets (nil p = minimise everything; q must be non-nil when p is).
func MinimalModelsPZ(d *db.DB, p, q map[int]bool) []logic.Interp {
	all := Models(d)
	var out []logic.Interp
	for _, m := range all {
		minimal := true
		for _, o := range all {
			if pzLess(o, m, p, q) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, m)
		}
	}
	return out
}

// Entails reports whether every model in set satisfies f.
func Entails(set []logic.Interp, f *logic.Formula) bool {
	for _, m := range set {
		if !f.Eval(m) {
			return false
		}
	}
	return true
}

// GCWA returns GCWA(DB): models M such that every atom false in all
// minimal models is false in M.
func GCWA(d *db.DB) []logic.Interp {
	return CCWA(d, nil, nil)
}

// CCWA returns CCWA(DB) for the partition (nil p = full minimisation).
func CCWA(d *db.DB, p, q map[int]bool) []logic.Interp {
	mm := MinimalModelsPZ(d, p, q)
	n := d.N()
	falseEverywhere := make([]bool, n)
	for v := 0; v < n; v++ {
		if p != nil && !p[v] {
			continue // only P atoms are closed
		}
		falseEverywhere[v] = true
		for _, m := range mm {
			if m.Holds(logic.Atom(v)) {
				falseEverywhere[v] = false
				break
			}
		}
	}
	var out []logic.Interp
	for _, m := range Models(d) {
		ok := true
		for v := 0; v < n; v++ {
			if falseEverywhere[v] && m.Holds(logic.Atom(v)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, m)
		}
	}
	return out
}

// EGCWA returns EGCWA(DB) = MM(DB).
func EGCWA(d *db.DB) []logic.Interp { return MinimalModels(d) }

// ECWA returns ECWA_{P;Z}(DB) = MM(DB;P;Z).
func ECWA(d *db.DB, p, q map[int]bool) []logic.Interp {
	return MinimalModelsPZ(d, p, q)
}

// DDROccurring returns the atoms occurring in the (unreduced)
// hyperresolution closure T_DB↑ω, computed by naive saturation over
// explicit disjunction sets. Integrity clauses are ignored.
func DDROccurring(d *db.DB) map[int]bool {
	type disj = string // canonical key of a sorted atom set
	n := d.N()
	encode := func(set []bool) disj {
		b := make([]byte, n)
		for i, v := range set {
			if v {
				b[i] = 1
			}
		}
		return disj(b)
	}
	state := map[disj][]bool{}
	add := func(set []bool) bool {
		k := encode(set)
		if _, ok := state[k]; ok {
			return false
		}
		cp := make([]bool, n)
		copy(cp, set)
		state[k] = cp
		return true
	}
	var rules []db.Clause
	for _, c := range d.Clauses {
		if c.IsIntegrity() || len(c.NegBody) > 0 {
			continue
		}
		if c.IsFact() {
			set := make([]bool, n)
			for _, h := range c.Head {
				set[h] = true
			}
			add(set)
		} else {
			rules = append(rules, c)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			k := len(r.PosBody)
			// All tuples of state disjunctions covering the body.
			var keys []disj
			for key := range state {
				keys = append(keys, key)
			}
			if len(keys) == 0 {
				continue
			}
			idx := make([]int, k)
			for {
				ok := true
				derived := make([]bool, n)
				for _, h := range r.Head {
					derived[h] = true
				}
				for j := 0; j < k && ok; j++ {
					dset := state[keys[idx[j]]]
					if !dset[r.PosBody[j]] {
						ok = false
						break
					}
					for v := 0; v < n; v++ {
						if dset[v] && v != int(r.PosBody[j]) {
							derived[v] = true
						}
					}
				}
				if ok && add(derived) {
					changed = true
				}
				j := k - 1
				for ; j >= 0; j-- {
					idx[j]++
					if idx[j] < len(keys) {
						break
					}
					idx[j] = 0
				}
				if j < 0 || k == 0 {
					break
				}
			}
		}
	}
	occ := map[int]bool{}
	for _, set := range state {
		for v, b := range set {
			if b {
				occ[v] = true
			}
		}
	}
	return occ
}

// DDR returns DDR(DB): models of DB in which every atom not occurring
// in T_DB↑ω is false.
func DDR(d *db.DB) []logic.Interp {
	occ := DDROccurring(d)
	var out []logic.Interp
	for _, m := range Models(d) {
		ok := true
		for v := 0; v < d.N(); v++ {
			if m.Holds(logic.Atom(v)) && !occ[v] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, m)
		}
	}
	return out
}

// PWS returns the possible models of DB satisfying its integrity
// clauses, by explicit enumeration of all split programs.
func PWS(d *db.DB) []logic.Interp {
	var definite, disjunctive, integrity []db.Clause
	for _, c := range d.Clauses {
		switch {
		case c.IsIntegrity():
			integrity = append(integrity, c)
		case len(c.Head) == 1:
			definite = append(definite, c)
		default:
			disjunctive = append(disjunctive, c)
		}
	}
	n := d.N()
	seen := map[string]bool{}
	var out []logic.Interp
	// split is the current split program: the definite clauses, then
	// one single-head clause per chosen head atom of each disjunctive
	// clause decided so far. Each branch appends its choice and the
	// backtrack truncates it again.
	split := append([]db.Clause(nil), definite...)
	var rec func(i int)
	rec = func(i int) {
		if i == len(disjunctive) {
			m := leastModel(split, n)
			for _, c := range integrity {
				if !c.Sat(m) {
					return
				}
			}
			if !seen[m.Key()] {
				seen[m.Key()] = true
				out = append(out, m)
			}
			return
		}
		c := disjunctive[i]
		mark := len(split)
		for mask := 1; mask < 1<<uint(len(c.Head)); mask++ {
			for b := 0; b < len(c.Head); b++ {
				if mask&(1<<uint(b)) != 0 {
					split = append(split, db.Clause{Head: c.Head[b : b+1], PosBody: c.PosBody})
				}
			}
			rec(i + 1)
			split = split[:mark]
		}
	}
	rec(0)
	return out
}

// leastModel returns the least model of a definite program over n
// atoms.
func leastModel(clauses []db.Clause, n int) logic.Interp {
	m := logic.NewInterp(n)
	for changed := true; changed; {
		changed = false
		for _, c := range clauses {
			if m.Holds(c.Head[0]) {
				continue
			}
			fire := true
			for _, b := range c.PosBody {
				if !m.Holds(b) {
					fire = false
					break
				}
			}
			if fire {
				m.True.Set(int(c.Head[0]))
				changed = true
			}
		}
	}
	return m
}

// DSM returns the disjunctive stable models: interpretations M with
// M ∈ MM(DB^M), checked from the definition.
func DSM(d *db.DB) []logic.Interp {
	all := allInterps(d.N())
	var out []logic.Interp
	for _, m := range all {
		red := d.Reduct(m)
		if !red.Sat(m) {
			continue
		}
		stable := true
		for _, o := range all {
			if o.ProperSubsetOf(m) && red.Sat(o) {
				stable = false
				break
			}
		}
		if stable {
			out = append(out, m)
		}
	}
	return out
}

// Preferable reports N ≺ M under priority pri: N ≠ M and every atom of
// N∖M is strictly below some atom of M∖N.
func Preferable(n, m logic.Interp, pri *strat.Priority) bool {
	if n.Equal(m) {
		return false
	}
	size := n.N()
	for a := 0; a < size; a++ {
		if !n.Holds(logic.Atom(a)) || m.Holds(logic.Atom(a)) {
			continue
		}
		found := false
		for b := 0; b < size; b++ {
			if m.Holds(logic.Atom(b)) && !n.Holds(logic.Atom(b)) && pri.Less(a, b) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// PERF returns the perfect models of DB (no integrity clauses).
func PERF(d *db.DB) []logic.Interp {
	pri := strat.NewPriority(d, nil)
	all := Models(d)
	var out []logic.Interp
	for _, m := range all {
		perfect := true
		for _, n := range all {
			if Preferable(n, m, pri) {
				perfect = false
				break
			}
		}
		if perfect {
			out = append(out, m)
		}
	}
	return out
}

// ICWA returns ICWA(DB) for the default full-minimisation partition:
// the prioritised-minimal models of the head-shifted database along
// the canonical stratification. ok is false if DB is unstratifiable.
func ICWA(d *db.DB) (result []logic.Interp, ok bool) {
	st, ok := strat.Compute(d)
	if !ok {
		return nil, false
	}
	shifted := d.HeadShift()
	all := Models(shifted)
	less := func(a, b logic.Interp) bool {
		// a <p b: at the first stratum where the P-parts differ,
		// a's is a proper subset of b's.
		for i := 0; i < st.R; i++ {
			sub, equal := true, true
			for v := 0; v < d.N(); v++ {
				if st.Level[v] != i {
					continue
				}
				av, bv := a.Holds(logic.Atom(v)), b.Holds(logic.Atom(v))
				if av != bv {
					equal = false
				}
				if av && !bv {
					sub = false
				}
			}
			if !equal {
				return sub
			}
		}
		return false
	}
	for _, m := range all {
		minimal := true
		for _, o := range all {
			if less(o, m) {
				minimal = false
				break
			}
		}
		if minimal {
			result = append(result, m)
		}
	}
	return result, true
}

// AllPartials enumerates every 3-valued interpretation over n atoms
// (n ≤ 13); larger n yields ErrTooLarge.
func AllPartials(n int) ([]logic.Partial, error) {
	if n > 13 {
		return nil, fmt.Errorf("%w: AllPartials over %d atoms (max 13)", ErrTooLarge, n)
	}
	total := 1
	for i := 0; i < n; i++ {
		total *= 3
	}
	out := make([]logic.Partial, 0, total)
	for code := 0; code < total; code++ {
		p := logic.NewPartial(n)
		c := code
		for v := 0; v < n; v++ {
			p.SetValue(logic.Atom(v), logic.TruthValue(c%3))
			c /= 3
		}
		out = append(out, p)
	}
	return out, nil
}

// allPartials is AllPartials panicking with the typed error (see
// allInterps).
func allPartials(n int) []logic.Partial {
	out, err := AllPartials(n)
	if err != nil {
		panic(err)
	}
	return out
}

// sat3Reduct mirrors the 3-valued reduct satisfaction from the
// definition: q ⊨₃ DB^p.
func sat3Reduct(d *db.DB, p, q logic.Partial) bool {
	for _, c := range d.Clauses {
		body := logic.True
		for _, b := range c.PosBody {
			if w := q.Value(b); w < body {
				body = w
			}
		}
		for _, cn := range c.NegBody {
			if w := logic.True - p.Value(cn); w < body {
				body = w
			}
		}
		head := logic.False
		for _, h := range c.Head {
			if w := q.Value(h); w > head {
				head = w
			}
		}
		if head < body {
			return false
		}
	}
	return true
}

// PDSM returns the partial stable models, from the definition: p ⊨₃
// DB^p and no q < p in the truth order has q ⊨₃ DB^p.
func PDSM(d *db.DB) []logic.Partial {
	n := d.N()
	q := logic.NewPartial(n)
	var out []logic.Partial
	for _, p := range allPartials(n) {
		if sat3Reduct(d, p, p) && !belowSat3Reduct(d, p, q, 0) {
			out = append(out, p)
		}
	}
	return out
}

// belowSat3Reduct reports whether some q < p has q ⊨₃ DB^p. It walks
// exactly the q ≤ p: q holds the values chosen for the atoms before v,
// and atom v takes each value up to p(v).
func belowSat3Reduct(d *db.DB, p, q logic.Partial, v int) bool {
	if v == p.N() {
		return !q.Equal(p) && sat3Reduct(d, p, q)
	}
	for tv := logic.False; tv <= p.Value(logic.Atom(v)); tv++ {
		q.SetValue(logic.Atom(v), tv)
		if belowSat3Reduct(d, p, q, v+1) {
			return true
		}
	}
	return false
}

// SameModelSet reports whether the two model slices contain the same
// interpretations (as sets).
func SameModelSet(a, b []logic.Interp) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, m := range a {
		seen[m.Key()]++
	}
	for _, m := range b {
		if seen[m.Key()] == 0 {
			return false
		}
		seen[m.Key()]--
	}
	return true
}
