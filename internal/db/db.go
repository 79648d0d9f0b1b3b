// Package db defines propositional disjunctive databases (DDBs) in the
// sense of the paper: finite sets of clauses
//
//	a1 ∨ … ∨ an ← b1 ∧ … ∧ bk ∧ ¬c1 ∧ … ∧ ¬cm     (n, k, m ≥ 0)
//
// together with their classification (positive / deductive /
// stratified / normal), the standard program transforms (Gelfond–
// Lifschitz reduct, head-shift of negative body literals), and
// translation to CNF for the SAT oracle.
package db

import (
	"fmt"
	"sort"
	"strings"

	"disjunct/internal/logic"
)

// Clause is a disjunctive database clause. A clause with an empty Head
// is an integrity clause (denial); a clause with empty body parts is a
// (disjunctive) fact.
type Clause struct {
	Head    []logic.Atom // a1 ∨ … ∨ an
	PosBody []logic.Atom // b1 ∧ … ∧ bk
	NegBody []logic.Atom // ¬c1 ∧ … ∧ ¬cm
}

// IsIntegrity reports whether the clause has an empty head.
func (c Clause) IsIntegrity() bool { return len(c.Head) == 0 }

// IsFact reports whether the clause has an empty body.
func (c Clause) IsFact() bool { return len(c.PosBody) == 0 && len(c.NegBody) == 0 }

// IsPositive reports whether the clause has no negative body literals.
func (c Clause) IsPositive() bool { return len(c.NegBody) == 0 }

// IsDefinite reports whether the clause has exactly one head atom and
// no negation.
func (c Clause) IsDefinite() bool { return len(c.Head) == 1 && c.IsPositive() }

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	return Clause{
		Head:    append([]logic.Atom(nil), c.Head...),
		PosBody: append([]logic.Atom(nil), c.PosBody...),
		NegBody: append([]logic.Atom(nil), c.NegBody...),
	}
}

// Normalize sorts and deduplicates each part of the clause in place and
// returns the clause.
func (c Clause) Normalize() Clause {
	c.Head = dedupAtoms(c.Head)
	c.PosBody = dedupAtoms(c.PosBody)
	c.NegBody = dedupAtoms(c.NegBody)
	return c
}

func dedupAtoms(as []logic.Atom) []logic.Atom {
	if len(as) < 2 {
		return as
	}
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	out := as[:1]
	for _, a := range as[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// Sat reports whether interpretation m satisfies the clause: if every
// positive body atom is true and every negative body atom is false in
// m, then some head atom must be true.
func (c Clause) Sat(m logic.Interp) bool {
	for _, b := range c.PosBody {
		if !m.Holds(b) {
			return true
		}
	}
	for _, n := range c.NegBody {
		if m.Holds(n) {
			return true
		}
	}
	for _, h := range c.Head {
		if m.Holds(h) {
			return true
		}
	}
	return false
}

// Class is the syntactic class of a database per the paper's
// classification (following Fernández & Minker).
type Class int

// Database classes, from most to least restricted.
const (
	// ClassPositiveDDB: no negation and no integrity clauses — the
	// regime of Table 1.
	ClassPositiveDDB Class = iota
	// ClassDDDB: disjunctive deductive DB — no negation, integrity
	// clauses allowed.
	ClassDDDB
	// ClassDSDB: disjunctive stratified DB — negation occurs but the
	// database admits a stratification.
	ClassDSDB
	// ClassDNDB: disjunctive normal DB — arbitrary clauses.
	ClassDNDB
)

func (c Class) String() string {
	switch c {
	case ClassPositiveDDB:
		return "positive DDB"
	case ClassDDDB:
		return "DDDB"
	case ClassDSDB:
		return "DSDB"
	default:
		return "DNDB"
	}
}

// DB is a propositional disjunctive database: a clause set over a
// vocabulary. The vocabulary may contain atoms not occurring in any
// clause (the paper's V is fixed independently of DB); inference is
// relative to the vocabulary.
type DB struct {
	Voc     *logic.Vocabulary
	Clauses []Clause
}

// New returns an empty database over a fresh vocabulary.
func New() *DB {
	return &DB{Voc: logic.NewVocabulary()}
}

// NewWithVocab returns an empty database over the given vocabulary.
func NewWithVocab(v *logic.Vocabulary) *DB {
	return &DB{Voc: v}
}

// Add appends a clause (normalised).
func (d *DB) Add(c Clause) {
	d.Clauses = append(d.Clauses, c.Normalize())
}

// AddRule is a convenience constructor from atom slices.
func (d *DB) AddRule(head, posBody, negBody []logic.Atom) {
	d.Add(Clause{Head: head, PosBody: posBody, NegBody: negBody})
}

// AddFact adds the disjunctive fact a1 ∨ … ∨ an.
func (d *DB) AddFact(atoms ...logic.Atom) {
	d.Add(Clause{Head: atoms})
}

// N returns the vocabulary size.
func (d *DB) N() int { return d.Voc.Size() }

// Clone returns a deep copy sharing no mutable state with d.
func (d *DB) Clone() *DB {
	out := &DB{Voc: d.Voc.Clone(), Clauses: make([]Clause, len(d.Clauses))}
	for i, c := range d.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// HasNegation reports whether any clause uses negation.
func (d *DB) HasNegation() bool {
	for _, c := range d.Clauses {
		if !c.IsPositive() {
			return true
		}
	}
	return false
}

// HasIntegrityClauses reports whether any clause has an empty head.
func (d *DB) HasIntegrityClauses() bool {
	for _, c := range d.Clauses {
		if c.IsIntegrity() {
			return true
		}
	}
	return false
}

// IsPositive reports whether no clause uses negation.
func (d *DB) IsPositive() bool { return !d.HasNegation() }

// Sat reports whether m is a model of the database.
func (d *DB) Sat(m logic.Interp) bool {
	for _, c := range d.Clauses {
		if !c.Sat(m) {
			return false
		}
	}
	return true
}

// ToCNF translates the database to a CNF over its vocabulary: each
// clause a1∨…∨an ← b1∧…∧bk∧¬c1∧…∧¬cm becomes the SAT clause
// a1 ∨ … ∨ an ∨ ¬b1 ∨ … ∨ ¬bk ∨ c1 ∨ … ∨ cm.
//
// Every clause is a window of one literal slab, capped at its own end
// so that a caller's append reallocates instead of overwriting the
// next clause.
func (d *DB) ToCNF() logic.CNF {
	total := 0
	for _, c := range d.Clauses {
		total += len(c.Head) + len(c.PosBody) + len(c.NegBody)
	}
	lits := make([]logic.Lit, 0, total)
	out := make(logic.CNF, 0, len(d.Clauses))
	for _, c := range d.Clauses {
		start := len(lits)
		for _, h := range c.Head {
			lits = append(lits, logic.PosLit(h))
		}
		for _, b := range c.PosBody {
			lits = append(lits, logic.NegLit(b))
		}
		for _, n := range c.NegBody {
			lits = append(lits, logic.PosLit(n))
		}
		end := len(lits)
		out = append(out, logic.Clause(lits[start:end:end]))
	}
	return out
}

// Reduct returns the Gelfond–Lifschitz reduct DB^M: clauses whose
// negative body is compatible with M (no ¬c with c ∈ M) with the
// negative body removed. The result is positive.
func (d *DB) Reduct(m logic.Interp) *DB {
	out := &DB{Voc: d.Voc}
	for _, c := range d.Clauses {
		blocked := false
		for _, n := range c.NegBody {
			if m.Holds(n) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		out.Clauses = append(out.Clauses, Clause{
			Head:    append([]logic.Atom(nil), c.Head...),
			PosBody: append([]logic.Atom(nil), c.PosBody...),
		})
	}
	return out
}

// HeadShift returns the positive database obtained by moving every
// negative body literal into the head (¬c in the body of a clause with
// head H becomes an extra head atom c). The paper uses this transform
// when applying ICWA to stratified databases.
func (d *DB) HeadShift() *DB {
	out := &DB{Voc: d.Voc}
	for _, c := range d.Clauses {
		nc := Clause{
			Head:    append(append([]logic.Atom(nil), c.Head...), c.NegBody...),
			PosBody: append([]logic.Atom(nil), c.PosBody...),
		}
		out.Clauses = append(out.Clauses, nc.Normalize())
	}
	return out
}

// WithoutIntegrity returns a copy of the database without its
// integrity clauses (the DDR semantics ignores them; cf. Example 3.1).
func (d *DB) WithoutIntegrity() *DB {
	out := &DB{Voc: d.Voc}
	for _, c := range d.Clauses {
		if !c.IsIntegrity() {
			out.Clauses = append(out.Clauses, c)
		}
	}
	return out
}

// String renders the database in the parser's concrete syntax.
func (d *DB) String() string {
	var b strings.Builder
	for _, c := range d.Clauses {
		b.WriteString(d.ClauseString(c))
		b.WriteByte('\n')
	}
	return b.String()
}

// ClauseString renders one clause, e.g. "a | b :- c, not d."
func (d *DB) ClauseString(c Clause) string {
	var b strings.Builder
	for i, h := range c.Head {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(d.Voc.Name(h))
	}
	if len(c.PosBody)+len(c.NegBody) > 0 {
		if len(c.Head) > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(":- ")
		first := true
		for _, p := range c.PosBody {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(d.Voc.Name(p))
		}
		for _, n := range c.NegBody {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString("not ")
			b.WriteString(d.Voc.Name(n))
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Stats summarises a database's shape.
type Stats struct {
	Atoms            int
	Clauses          int
	IntegrityClauses int
	NegativeLiterals int
	MaxHead          int
	Facts            int
}

// Stats computes summary statistics.
func (d *DB) Stats() Stats {
	s := Stats{Atoms: d.N(), Clauses: len(d.Clauses)}
	for _, c := range d.Clauses {
		if c.IsIntegrity() {
			s.IntegrityClauses++
		}
		if c.IsFact() {
			s.Facts++
		}
		s.NegativeLiterals += len(c.NegBody)
		if len(c.Head) > s.MaxHead {
			s.MaxHead = len(c.Head)
		}
	}
	return s
}

// Validate checks internal consistency (all atoms within vocabulary).
func (d *DB) Validate() error {
	n := logic.Atom(d.N())
	for i, c := range d.Clauses {
		for _, part := range [][]logic.Atom{c.Head, c.PosBody, c.NegBody} {
			for _, a := range part {
				if a < 0 || a >= n {
					return fmt.Errorf("db: clause %d references atom %d outside vocabulary of size %d", i, a, n)
				}
			}
		}
	}
	return nil
}
