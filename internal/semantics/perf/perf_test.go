package perf

import (
	"math/rand"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
	"disjunct/internal/strat"
)

func TestRegistered(t *testing.T) {
	if _, ok := core.New("PERF", core.Options{}); !ok {
		t.Fatalf("PERF not registered")
	}
}

func TestStratifiedExample(t *testing.T) {
	// DB = {a ← ¬b}: priority a < b; unique perfect model {a}.
	d := dbtest.MustParse("a :- not b.")
	s := New(core.Options{})
	var got []string
	if _, err := s.Models(d, 0, func(m logic.Interp) bool {
		got = append(got, m.String(d.Voc))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "{a}" {
		t.Fatalf("perfect models of {a←¬b} = %v, want [{a}]", got)
	}
}

func TestPositiveDBPerfectEqualsMinimal(t *testing.T) {
	// Without negation the priority relation has no strict pairs, so
	// preferability degenerates to ⊊ and PERF = MM.
	rng := rand.New(rand.NewSource(81))
	s := New(core.Options{})
	for iter := 0; iter < 150; iter++ {
		d := gen.Random(rng, gen.Positive(2+rng.Intn(4), 1+rng.Intn(6)))
		want := refsem.MinimalModels(d)
		var got []logic.Interp
		if _, err := s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !refsem.SameModelSet(want, got) {
			t.Fatalf("iter %d: PERF ≠ MM on positive DB\nDB:\n%s", iter, d.String())
		}
	}
}

func TestModelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	s := New(core.Options{})
	for iter := 0; iter < 250; iter++ {
		d := gen.Random(rng, gen.NormalNoIC(2+rng.Intn(4), 1+rng.Intn(7)))
		want := refsem.PERF(d)
		var got []logic.Interp
		if _, err := s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !refsem.SameModelSet(want, got) {
			t.Fatalf("iter %d: PERF mismatch\nDB:\n%swant %d got %d",
				iter, d.String(), len(want), len(got))
		}
	}
}

func TestStratifiedPerfectEqualsICWAModels(t *testing.T) {
	// On stratified databases the perfect models coincide with the
	// iterated (prioritised) minimal models — the paper introduces
	// ICWA exactly "for capturing PERF under stratified negation".
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 150; iter++ {
		d := gen.RandomStratified(rng, 2+rng.Intn(4), 1+rng.Intn(6), 2)
		icwa, ok := refsem.ICWA(d)
		if !ok {
			t.Fatalf("iter %d: generated DB should be stratified", iter)
		}
		perf := refsem.PERF(d)
		if !refsem.SameModelSet(icwa, perf) {
			t.Fatalf("iter %d: PERF ≠ ICWA on stratified DB\n%s", iter, d.String())
		}
	}
}

func TestInferenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	s := New(core.Options{})
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.NormalNoIC(n, 1+rng.Intn(6)))
		set := refsem.PERF(d)
		f := randomFormula(rng, n, 3)
		want := refsem.Entails(set, f)
		got, err := s.InferFormula(d, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: InferFormula=%v want %v\nDB:\n%sF: %s",
				iter, got, want, d.String(), f.String(d.Voc))
		}
	}
}

func TestHasModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	s := New(core.Options{})
	for iter := 0; iter < 200; iter++ {
		d := gen.Random(rng, gen.NormalNoIC(2+rng.Intn(4), 1+rng.Intn(6)))
		want := len(refsem.PERF(d)) > 0
		got, err := s.HasModel(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: HasModel=%v want %v\nDB:\n%s", iter, got, want, d.String())
		}
	}
}

func TestIntegrityClausesUnsupported(t *testing.T) {
	d := dbtest.MustParse("a. :- a, b.")
	s := New(core.Options{})
	if _, err := s.HasModel(d); err != core.ErrUnsupported {
		t.Fatalf("PERF with integrity clauses should be unsupported, got %v", err)
	}
}

func TestIsPerfectAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	s := New(core.Options{})
	for iter := 0; iter < 150; iter++ {
		d := gen.Random(rng, gen.NormalNoIC(2+rng.Intn(4), 1+rng.Intn(6)))
		pri := strat.NewPriority(d, nil)
		all := refsem.Models(d)
		for _, m := range all {
			want := true
			for _, n := range all {
				if refsem.Preferable(n, m, pri) {
					want = false
					break
				}
			}
			if got := s.IsPerfect(d, m, pri); got != want {
				t.Fatalf("iter %d: IsPerfect(%s)=%v want %v\nDB:\n%s",
					iter, m.String(d.Voc), got, want, d.String())
			}
		}
	}
}

func TestPriorityRelation(t *testing.T) {
	// a ← b ∧ ¬c: a ≤ b, a < c.
	d := dbtest.MustParse("a :- b, not c.")
	pri := strat.NewPriority(d, nil)
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")
	c, _ := d.Voc.Lookup("c")
	if !pri.Leq(int(a), int(b)) {
		t.Fatalf("want a ≤ b")
	}
	if !pri.Less(int(a), int(c)) {
		t.Fatalf("want a < c")
	}
	if pri.Less(int(c), int(a)) {
		t.Fatalf("c < a must not hold")
	}
}

func randomFormula(rng *rand.Rand, n, depth int) *logic.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		a := logic.Atom(rng.Intn(n))
		if rng.Intn(2) == 0 {
			return logic.Not(logic.AtomF(a))
		}
		return logic.AtomF(a)
	}
	l := randomFormula(rng, n, depth-1)
	r := randomFormula(rng, n, depth-1)
	switch rng.Intn(3) {
	case 0:
		return logic.And(l, r)
	case 1:
		return logic.Or(l, r)
	default:
		return logic.Implies(l, r)
	}
}
