// Package logic provides the propositional substrate of the library:
// a vocabulary of named atoms, literals, (partial and total)
// interpretations, a formula AST with parser and evaluator, and clausal
// form conversion (including Tseitin encoding) for handing formulas to
// the SAT solver.
//
// Everything is propositional, matching the paper's setting: databases
// and formulas over a finite set V of propositional variables.
package logic

import (
	"maps"
	"sort"
	"strconv"
)

// Atom is the index of a propositional variable in a Vocabulary.
// Atoms are dense, starting at 0.
type Atom int

// Lit is a propositional literal: a positive or negated atom.
// Encoded as 2*atom for the positive literal and 2*atom+1 for the
// negative one (the usual solver encoding).
type Lit int

// PosLit returns the positive literal of a.
func PosLit(a Atom) Lit { return Lit(2 * a) }

// NegLit returns the negative literal of a.
func NegLit(a Atom) Lit { return Lit(2*a + 1) }

// MkLit returns the literal of a with the given sign (true = positive).
func MkLit(a Atom, positive bool) Lit {
	if positive {
		return PosLit(a)
	}
	return NegLit(a)
}

// Atom returns the atom of the literal.
func (l Lit) Atom() Atom { return Atom(l >> 1) }

// IsPos reports whether the literal is positive.
func (l Lit) IsPos() bool { return l&1 == 0 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Vocabulary maps atom names to dense atom indices and back.
// The zero value is empty and ready to use via New; a Vocabulary is
// append-only: atoms are never removed, so indices remain stable.
type Vocabulary struct {
	names []string
	index map[string]Atom
	// fresh[prefix] is FreshNamed's next candidate position for prefix:
	// every earlier candidate is taken, and atoms are never removed.
	fresh map[string]int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{index: make(map[string]Atom)}
}

// Intern returns the atom for name, creating it if necessary.
func (v *Vocabulary) Intern(name string) Atom {
	if a, ok := v.index[name]; ok {
		return a
	}
	a := Atom(len(v.names))
	v.names = append(v.names, name)
	v.index[name] = a
	return a
}

// Lookup returns the atom for name and whether it exists.
func (v *Vocabulary) Lookup(name string) (Atom, bool) {
	a, ok := v.index[name]
	return a, ok
}

// Name returns the name of atom a. It panics if a is out of range.
func (v *Vocabulary) Name(a Atom) string { return v.names[a] }

// Size returns the number of atoms in the vocabulary.
func (v *Vocabulary) Size() int { return len(v.names) }

// Names returns the atom names in index order. The returned slice is a
// copy and may be modified by the caller.
func (v *Vocabulary) Names() []string {
	out := make([]string, len(v.names))
	copy(out, v.names)
	return out
}

// SortedNames returns the atom names in lexicographic order.
func (v *Vocabulary) SortedNames() []string {
	out := v.Names()
	sort.Strings(out)
	return out
}

// Clone returns an independent copy of the vocabulary.
func (v *Vocabulary) Clone() *Vocabulary {
	c := NewVocabulary()
	for _, n := range v.names {
		c.Intern(n)
	}
	c.fresh = maps.Clone(v.fresh)
	return c
}

// LitString renders a literal using the vocabulary ("x" or "-x").
func (v *Vocabulary) LitString(l Lit) string {
	if l.IsPos() {
		return v.Name(l.Atom())
	}
	return "-" + v.Name(l.Atom())
}

// FreshNamed interns a new atom whose name is based on prefix and is
// guaranteed not to collide with an existing atom: the first free name
// among prefix, prefix_0, prefix_1, …. The search resumes where the
// previous call for prefix stopped, so n calls cost O(n) lookups.
func (v *Vocabulary) FreshNamed(prefix string) Atom {
	for pos := v.fresh[prefix]; ; pos++ {
		name := prefix
		if pos > 0 {
			name = prefix + "_" + strconv.Itoa(pos-1)
		}
		if _, ok := v.index[name]; !ok {
			if v.fresh == nil {
				v.fresh = make(map[string]int)
			}
			v.fresh[prefix] = pos + 1
			return v.Intern(name)
		}
	}
}
