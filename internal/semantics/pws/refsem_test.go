package pws

import (
	"fmt"
	"math/rand"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
	"disjunct/internal/strat"
)

// splitPrograms is the number of split programs refsem.PWS walks:
// ∏(2^|H|−1) over the non-integrity clauses.
func splitPrograms(d *db.DB) int {
	n := 1
	for _, c := range d.Clauses {
		if !c.IsIntegrity() {
			n *= 1<<uint(len(c.Head)) - 1
		}
	}
	return n
}

// maxSplits bounds the reference's enumeration per database; draws
// above it are redrawn, so the tests stay fast without capping n or
// the clause count.
const maxSplits = 1 << 12

// addCycle closes a positive dependency cycle through some atoms of d
// (one atom gives a self-loop a ← a) and returns them.
func addCycle(rng *rand.Rand, d *db.DB) []int {
	n := d.N()
	ring := rng.Perm(n)[:1+rng.Intn(n)]
	for i, a := range ring {
		c := db.Clause{
			Head:    []logic.Atom{logic.Atom(a)},
			PosBody: []logic.Atom{logic.Atom(ring[(i+1)%len(ring)])},
		}
		if rng.Intn(2) == 0 {
			c.Head = append(c.Head, logic.Atom(rng.Intn(n)))
		}
		if rng.Intn(3) == 0 {
			c.PosBody = append(c.PosBody, logic.Atom(rng.Intn(n)))
		}
		d.Add(c.Normalize())
	}
	return ring
}

// referenceCorpus calls check on each database of the differential
// corpus with its refsem.PWS model set: seeds 1–3 × 3000 databases over
// n ≤ 9 atoms, a third positive, a third with integrity clauses and a
// third with a forced positive cycle. It fails if a forced cycle is
// split across components, or if no database has a component of two or
// more atoms, where possibleCNF ranks.
func referenceCorpus(t *testing.T, check func(label string, rng *rand.Rand, d *db.DB, want []logic.Interp)) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		ranked := 0
		for i := 0; i < 3000; i++ {
			n := 1 + rng.Intn(9)
			var d *db.DB
			var ring []int
			for d == nil || splitPrograms(d) > maxSplits {
				cfg := gen.Positive(n, 1+rng.Intn(n+2))
				if i%3 == 1 || (i%3 == 2 && rng.Intn(2) == 0) {
					cfg = gen.WithIntegrity(n, 1+rng.Intn(n+2))
				}
				d = gen.Random(rng, cfg)
				if i%3 == 2 {
					ring = addCycle(rng, d)
				}
			}
			label := fmt.Sprintf("seed %d db %d", seed, i)
			comp, size := strat.Components(d)
			for _, a := range ring {
				if comp[a] != comp[ring[0]] {
					t.Fatalf("%s: forced cycle split across components\n%s", label, d.String())
				}
			}
			if len(size) < n {
				ranked++
			}
			check(label, rng, d, refsem.PWS(d))
		}
		if ranked == 0 {
			t.Fatalf("seed %d: no database with a component of two or more atoms", seed)
		}
	}
}

func TestModelsMatchReference(t *testing.T) {
	s := New(core.Options{})
	referenceCorpus(t, func(label string, _ *rand.Rand, d *db.DB, want []logic.Interp) {
		checkModels(t, s, label, d, want)
	})
}

func TestInferLiteralMatchesReference(t *testing.T) {
	s := New(core.Options{})
	referenceCorpus(t, func(label string, rng *rand.Rand, d *db.DB, want []logic.Interp) {
		checkLiterals(t, s, label, d, want, logic.Atom(rng.Intn(d.N())))
	})
}

func TestInferFormulaMatchesReference(t *testing.T) {
	s := New(core.Options{})
	referenceCorpus(t, func(label string, rng *rand.Rand, d *db.DB, want []logic.Interp) {
		checkFormulas(t, s, label, d, want, formulaShapes(rng, d.N()))
	})
}

// checkModels compares Models, as a set, and HasModel with want.
func checkModels(t *testing.T, s *Sem, label string, d *db.DB, want []logic.Interp) {
	t.Helper()
	var got []logic.Interp
	if _, err := s.Models(d, 0, func(m logic.Interp) bool {
		got = append(got, m)
		return true
	}); err != nil {
		t.Fatalf("%s: Models: %v", label, err)
	}
	if !refsem.SameModelSet(want, got) {
		t.Fatalf("%s: %d possible models, refsem %d\nDB:\n%s", label, len(got), len(want), d.String())
	}
	has, err := s.HasModel(d)
	if err != nil {
		t.Fatalf("%s: HasModel: %v", label, err)
	}
	if has != (len(want) > 0) {
		t.Fatalf("%s: HasModel = %v, refsem %v\nDB:\n%s", label, has, len(want) > 0, d.String())
	}
}

// checkLiterals compares InferLiteral on both signs of a with want.
func checkLiterals(t *testing.T, s *Sem, label string, d *db.DB, want []logic.Interp, a logic.Atom) {
	t.Helper()
	for _, l := range []logic.Lit{logic.PosLit(a), logic.NegLit(a)} {
		got, err := s.InferLiteral(d, l)
		if err != nil {
			t.Fatalf("%s: InferLiteral: %v", label, err)
		}
		if w := refsem.Entails(want, logic.LitF(l)); got != w {
			t.Fatalf("%s: InferLiteral(%s) = %v, refsem %v\nDB:\n%s", label, d.Voc.LitString(l), got, w, d.String())
		}
	}
}

// checkFormulas compares InferFormula on each formula with want.
func checkFormulas(t *testing.T, s *Sem, label string, d *db.DB, want []logic.Interp, formulas []*logic.Formula) {
	t.Helper()
	for _, f := range formulas {
		got, err := s.InferFormula(d, f)
		if err != nil {
			t.Fatalf("%s: InferFormula: %v", label, err)
		}
		if w := refsem.Entails(want, f); got != w {
			t.Fatalf("%s: InferFormula(%s) = %v, refsem %v\nDB:\n%s", label, f.String(d.Voc), got, w, d.String())
		}
	}
}

// formulaShapes draws one formula of each shape: a clause, a
// conjunction of literals, and a nested and/or/implies formula.
func formulaShapes(rng *rand.Rand, n int) []*logic.Formula {
	lit := func() *logic.Formula {
		a := logic.AtomF(logic.Atom(rng.Intn(n)))
		if rng.Intn(2) == 0 {
			return logic.Not(a)
		}
		return a
	}
	return []*logic.Formula{
		logic.Or(lit(), lit(), lit()),
		logic.And(lit(), lit()),
		randomFormula(rng, n, 3),
	}
}

// FuzzPWSRefsem decodes small databases (n ≤ 7) from bytes and checks
// every PWS answer against refsem.PWS. Byte 0 gives n; each following
// pair is a clause, head then positive body as atom bitmasks (an empty
// head is an integrity clause); the last byte picks the query atom.
func FuzzPWSRefsem(f *testing.F) {
	f.Add([]byte{3, 0b011, 0, 0b100, 0b011, 2})
	f.Add([]byte{3, 0b011, 0, 0, 0b011, 0b100, 0b011, 2})
	f.Add([]byte{2, 0b01, 0b10, 0b10, 0b01, 0b01, 0, 1})
	f.Add([]byte{4, 0b0001, 0b0001, 0b0110, 0b0001, 0b1000, 0b0110, 0, 0b1001, 3})
	f.Add([]byte{6, 0b000001, 0b000010, 0b000010, 0b000100, 0b000100, 0b001000, 0b001000, 0b000001, 0b010000, 0, 0b100000, 0b000011, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%7
		d := db.New()
		for a := 0; a < n; a++ {
			d.Voc.Intern(string(rune('a' + a)))
		}
		atoms := func(mask byte) []logic.Atom {
			var out []logic.Atom
			for a := 0; a < n; a++ {
				if mask&(1<<uint(a)) != 0 {
					out = append(out, logic.Atom(a))
				}
			}
			return out
		}
		for i := 1; i+1 < len(data) && i < 1+2*10; i += 2 {
			c := db.Clause{Head: atoms(data[i]), PosBody: atoms(data[i+1])}
			if len(c.Head) > 0 || len(c.PosBody) > 0 {
				d.Add(c)
			}
		}
		if splitPrograms(d) > maxSplits {
			return
		}
		want := refsem.PWS(d)
		q := logic.Atom(int(data[len(data)-1]) % n)
		p, r := logic.AtomF(q), logic.AtomF(logic.Atom((int(q)+1)%n))
		s := New(core.Options{})
		checkModels(t, s, "fuzz", d, want)
		checkLiterals(t, s, "fuzz", d, want, q)
		checkFormulas(t, s, "fuzz", d, want, []*logic.Formula{logic.Or(logic.Not(p), r), logic.Implies(r, p)})
	})
}
