// Package strat implements stratification of disjunctive databases
// (§4 of the paper) and Przymusinski's priority relation on atoms used
// by the perfect model semantics (§5.1).
//
// A stratification of DB is a partition ⟨S1,…,Sr⟩ of the vocabulary
// such that for every clause a1∨…∨an ← b1∧…∧bk∧¬c1∧…∧¬cm with head
// atoms in stratum i: every positive body atom lies in a stratum ≤ i,
// every negated body atom in a stratum < i, and all head atoms lie in
// the same stratum. A DB admitting one is a DSDB; a stratification can
// be found efficiently (the paper: "Notice that a stratification of DB
// can be efficiently found") — we compute the canonical least one via
// the dependency graph's strongly connected components.
//
// The same components pass (scc.go) serves the positive dependency
// graph: HeadCycleFree tests whether a database is head-cycle-free,
// and Support writes the completion-plus-ranking encoding that PWS
// uses for possible models and the head-cycle-free minimal-model
// iterator of package models uses for the shifted program.
package strat

import (
	"slices"

	"disjunct/internal/db"
	"disjunct/internal/logic"
)

// Stratification assigns each atom a stratum index 0..R-1.
type Stratification struct {
	Level []int // Level[atom] = stratum
	R     int   // number of strata
}

// Strata returns the atom lists per stratum, lowest first.
func (s Stratification) Strata() [][]logic.Atom {
	out := make([][]logic.Atom, s.R)
	for a, l := range s.Level {
		out[l] = append(out[l], logic.Atom(a))
	}
	return out
}

// Compute attempts to stratify d. It returns the canonical
// stratification and true, or a zero value and false if d is not
// stratifiable (some cycle passes through negation, or head atoms
// cannot be placed consistently).
//
// Construction: build a graph on atoms where for each clause
// a1∨…∨an ← b1∧…∧bk∧¬c1∧…∧¬cm we add
//
//	bj → ai   (non-negative: stratum(ai) ≥ stratum(bj))
//	cl →¬ ai  (negative:     stratum(ai) > stratum(cl))
//	ai ↔ aj   (head atoms share a stratum)
//
// Integrity clauses impose no constraints (they have no head).
// The DB is stratifiable iff no cycle of the graph contains a negative
// edge; strata are then the longest-negative-path indices of the
// condensation (SCC) DAG.
func Compute(d *db.DB) (Stratification, bool) {
	n := d.N()
	// The edges in the layout of sccs, with neg[e] marking a negative
	// edge to[e]: count each atom's out-degree, then fill.
	off := make([]int, n+1)
	each := func(edge func(from, to logic.Atom, neg bool)) {
		for _, c := range d.Clauses {
			for _, h := range c.Head {
				for _, b := range c.PosBody {
					edge(b, h, false)
				}
				for _, cn := range c.NegBody {
					edge(cn, h, true)
				}
			}
			// Head atoms must share a stratum: bidirectional zero edges.
			for i := 1; i < len(c.Head); i++ {
				edge(c.Head[0], c.Head[i], false)
				edge(c.Head[i], c.Head[0], false)
			}
		}
	}
	each(func(from, _ logic.Atom, _ bool) { off[from+1]++ })
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	to, neg := make([]int, off[n]), make([]bool, off[n])
	fill := slices.Clone(off[:n])
	each(func(from, t logic.Atom, ng bool) {
		to[fill[from]], neg[fill[from]] = int(t), ng
		fill[from]++
	})

	comp := make([]int, n)
	var w sccWork
	_, nComp := w.sccs(off, to, comp, nil)

	// A negative edge inside one SCC makes the DB unstratifiable.
	for u := 0; u < n; u++ {
		for e := off[u]; e < off[u+1]; e++ {
			if neg[e] && comp[u] == comp[to[e]] {
				return Stratification{}, false
			}
		}
	}

	// Longest path by negative-edge count over the condensation DAG.
	// Components are numbered in reverse topological order, so process
	// them from last to first.
	compLevel := make([]int, nComp)
	order := make([][]int, nComp) // atoms per component
	for u := 0; u < n; u++ {
		order[comp[u]] = append(order[comp[u]], u)
	}
	for ci := nComp - 1; ci >= 0; ci-- {
		for _, u := range order[ci] {
			for e := off[u]; e < off[u+1]; e++ {
				cj := comp[to[e]]
				if cj == ci {
					continue
				}
				need := compLevel[ci]
				if neg[e] {
					need++
				}
				if compLevel[cj] < need {
					compLevel[cj] = need
				}
			}
		}
	}
	level := make([]int, n)
	r := 1
	for u := 0; u < n; u++ {
		level[u] = compLevel[comp[u]]
		if level[u]+1 > r {
			r = level[u] + 1
		}
	}
	return Stratification{Level: level, R: r}, true
}

// Check verifies that s is a valid stratification of d.
func Check(d *db.DB, s Stratification) bool {
	if len(s.Level) != d.N() {
		return false
	}
	for _, l := range s.Level {
		if l < 0 || l >= s.R {
			return false
		}
	}
	for _, c := range d.Clauses {
		if len(c.Head) == 0 {
			continue
		}
		h0 := s.Level[c.Head[0]]
		for _, h := range c.Head[1:] {
			if s.Level[h] != h0 {
				return false
			}
		}
		for _, b := range c.PosBody {
			if s.Level[b] > h0 {
				return false
			}
		}
		for _, n := range c.NegBody {
			if s.Level[n] >= h0 {
				return false
			}
		}
	}
	return true
}

// Layers splits the clause set by head stratum: Layers(d,s)[i] contains
// the clauses whose head atoms lie in stratum i. Integrity clauses are
// assigned to the highest stratum of any atom they mention (they must
// be respected once all their atoms are available).
func Layers(d *db.DB, s Stratification) []*db.DB {
	out := make([]*db.DB, s.R)
	for i := range out {
		out[i] = db.NewWithVocab(d.Voc)
	}
	for _, c := range d.Clauses {
		idx := 0
		if len(c.Head) > 0 {
			idx = s.Level[c.Head[0]]
		} else {
			for _, part := range [][]logic.Atom{c.PosBody, c.NegBody} {
				for _, a := range part {
					if s.Level[a] > idx {
						idx = s.Level[a]
					}
				}
			}
		}
		out[idx].Clauses = append(out[idx].Clauses, c)
	}
	return out
}

// Classify returns the full classification of d per the paper's
// hierarchy (Fernández–Minker): positive DDB ⊂ DDDB ⊂ DSDB ⊂ DNDB.
// A database with negation is a DSDB exactly when it stratifies.
func Classify(d *db.DB) db.Class {
	c := d.SyntacticClass()
	if c != db.ClassDNDB {
		return c
	}
	if _, ok := Compute(d); ok {
		return db.ClassDSDB
	}
	return db.ClassDNDB
}
