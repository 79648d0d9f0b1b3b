package models

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
)

func collectMinimal(e *Engine) []logic.Interp {
	var out []logic.Interp
	e.MinimalModels(0, func(m logic.Interp) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

func TestMinimalModelsSimple(t *testing.T) {
	d := dbtest.MustParse("a | b.")
	e := NewEngine(d, nil)
	mm := collectMinimal(e)
	if len(mm) != 2 {
		t.Fatalf("MM(a|b) has %d models, want 2", len(mm))
	}
	for _, m := range mm {
		if m.True.Count() != 1 {
			t.Fatalf("minimal model %s not a singleton", m.String(d.Voc))
		}
	}
}

func TestMinimalModelsPaperExample(t *testing.T) {
	// §2 of the paper: DB with M(DB) as listed and MM(DB) = {{a},{b}}.
	d := dbtest.MustParse("a | b.")
	d.Voc.Intern("c")
	e := NewEngine(d, nil)
	mm := collectMinimal(e)
	if len(mm) != 2 {
		t.Fatalf("got %d minimal models, want 2", len(mm))
	}
	want := map[string]bool{"{a}": true, "{b}": true}
	for _, m := range mm {
		if !want[m.String(d.Voc)] {
			t.Fatalf("unexpected minimal model %s", m.String(d.Voc))
		}
	}
}

func TestMinimalModelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		var d *db.DB
		if iter%2 == 0 {
			d = gen.Random(rng, gen.Positive(2+rng.Intn(5), 1+rng.Intn(8)))
		} else {
			d = gen.Random(rng, gen.WithIntegrity(2+rng.Intn(5), 1+rng.Intn(8)))
		}
		want := refsem.MinimalModels(d)
		got := collectMinimal(NewEngine(d, nil))
		if !refsem.SameModelSet(want, got) {
			t.Fatalf("iter %d: MM mismatch\nDB:\n%swant %d models, got %d", iter, d.String(), len(want), len(got))
		}
	}
}

func TestMinimalModelsPZMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(7)))
		p, q := randomPartition(rng, d.N())
		part := partitionOf(d.N(), p, q)
		want := refsem.MinimalModelsPZ(d, p, q)
		var got []logic.Interp
		eng := NewEngine(d, nil)
		// MinimalModelsPZ yields one representative per signature;
		// reconstruct the full set by filtering all models.
		eng.EnumerateModels(0, func(m logic.Interp) bool {
			if eng.IsMinimalPZ(m, part) {
				got = append(got, m.Clone())
			}
			return true
		})
		if !refsem.SameModelSet(want, got) {
			t.Fatalf("iter %d: MM(P;Z) mismatch\nDB:\n%swant %d, got %d", iter, d.String(), len(want), len(got))
		}
	}
}

// randomPartition returns P and Q as maps (Z = complement).
func randomPartition(rng *rand.Rand, n int) (p, q map[int]bool) {
	p, q = map[int]bool{}, map[int]bool{}
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			p[v] = true
		case 1:
			q[v] = true
		}
	}
	return p, q
}

func partitionOf(n int, p, q map[int]bool) Partition {
	var ps, zs []logic.Atom
	for v := 0; v < n; v++ {
		if p[v] {
			ps = append(ps, logic.Atom(v))
		} else if !q[v] {
			zs = append(zs, logic.Atom(v))
		}
	}
	return NewPartition(n, ps, zs)
}

func TestPartitionValid(t *testing.T) {
	part := NewPartition(5, []logic.Atom{0, 1}, []logic.Atom{4})
	if !part.Valid() {
		t.Fatalf("partition should be valid")
	}
	if part.P.Count() != 2 || part.Q.Count() != 2 || part.Z.Count() != 1 {
		t.Fatalf("partition sizes wrong: P=%v Q=%v Z=%v", part.P, part.Q, part.Z)
	}
	bad := Partition{P: part.P, Q: part.P, Z: part.Z}
	if bad.Valid() {
		t.Fatalf("overlapping partition should be invalid")
	}
}

func TestFullMin(t *testing.T) {
	part := FullMin(4)
	if !part.Valid() || part.P.Count() != 4 {
		t.Fatalf("FullMin wrong: %v", part.P)
	}
}

func TestMMEntailsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(7)))
		f := randomFormula(rng, d.Voc, n, 3)
		want := refsem.Entails(refsem.MinimalModels(d), f)
		eng := NewEngine(d, nil)
		got := eng.MMEntails(f, FullMin(d.N()))
		if got != want {
			t.Fatalf("iter %d: MMEntails=%v want %v\nDB:\n%sF: %s", iter, got, want, d.String(), f.String(d.Voc))
		}
	}
}

func TestMMEntailsPZMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		p, q := randomPartition(rng, n)
		part := partitionOf(n, p, q)
		f := randomFormula(rng, d.Voc, n, 3)
		want := refsem.Entails(refsem.MinimalModelsPZ(d, p, q), f)
		got := NewEngine(d, nil).MMEntails(f, part)
		if got != want {
			t.Fatalf("iter %d: MMEntails(P;Z)=%v want %v\nDB:\n%sF: %s\nP=%v Q=%v",
				iter, got, want, d.String(), f.String(d.Voc), p, q)
		}
	}
}

// randomFormula builds a random formula over the first n atoms of voc.
func randomFormula(rng *rand.Rand, voc *logic.Vocabulary, n, depth int) *logic.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		a := logic.Atom(rng.Intn(n))
		if rng.Intn(2) == 0 {
			return logic.Not(logic.AtomF(a))
		}
		return logic.AtomF(a)
	}
	l := randomFormula(rng, voc, n, depth-1)
	r := randomFormula(rng, voc, n, depth-1)
	switch rng.Intn(4) {
	case 0:
		return logic.And(l, r)
	case 1:
		return logic.Or(l, r)
	case 2:
		return logic.Implies(l, r)
	default:
		return logic.Not(l)
	}
}

func TestMinimizeProducesMinimalModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		d := gen.Random(rng, gen.WithIntegrity(3+rng.Intn(4), 1+rng.Intn(6)))
		eng := NewEngine(d, nil)
		ok, m := eng.HasModel()
		if !ok {
			continue
		}
		min := eng.Minimize(m)
		if !d.Sat(min) {
			t.Fatalf("iter %d: Minimize returned a non-model", iter)
		}
		if !eng.IsMinimal(min) {
			t.Fatalf("iter %d: Minimize returned a non-minimal model", iter)
		}
		if !min.SubsetOf(m) {
			t.Fatalf("iter %d: Minimize grew the model", iter)
		}
	}
}

func TestUniqueMinimalModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	agreeUnique, agreeMulti := 0, 0
	for iter := 0; iter < 300; iter++ {
		d := gen.Random(rng, gen.WithIntegrity(3+rng.Intn(4), 1+rng.Intn(6)))
		mm := refsem.MinimalModels(d)
		want := len(mm) == 1
		got, _ := NewEngine(d, nil).UniqueMinimalModel()
		if got != want {
			t.Fatalf("iter %d: UMINSAT=%v want %v (|MM|=%d)\nDB:\n%s", iter, got, want, len(mm), d.String())
		}
		if want {
			agreeUnique++
		} else {
			agreeMulti++
		}
	}
	if agreeUnique == 0 || agreeMulti == 0 {
		t.Fatalf("test corpus degenerate: unique=%d multi=%d", agreeUnique, agreeMulti)
	}
}

func TestUniqueMinimalModelUnsat(t *testing.T) {
	d := dbtest.MustParse("a. :- a.")
	ok, _ := NewEngine(d, nil).UniqueMinimalModel()
	if ok {
		t.Fatalf("unsatisfiable DB cannot have a unique minimal model")
	}
}

func TestEnumerateModelsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		d := gen.Random(rng, gen.WithIntegrity(2+rng.Intn(4), 1+rng.Intn(6)))
		want := len(refsem.Models(d))
		got := NewEngine(d, nil).EnumerateModels(0, func(logic.Interp) bool { return true })
		if got != want {
			t.Fatalf("iter %d: enumerated %d models, reference %d\nDB:\n%s", iter, got, want, d.String())
		}
	}
}

func TestOracleCountersAdvance(t *testing.T) {
	d := dbtest.MustParse("a | b. c :- a.")
	o := oracle.NewNP()
	eng := NewEngine(d, o)
	eng.MMEntails(logic.MustParseFormula("a | b", d.Voc), FullMin(d.N()))
	if o.Counters().NPCalls == 0 {
		t.Fatalf("MMEntails should consume NP-oracle calls")
	}
}

// Property: for any DB and formula, MMEntails is monotone with respect
// to weakening the formula by disjunction.
func TestQuickMMEntailsWeakening(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(5)))
		g := randomFormula(rng, d.Voc, n, 2)
		h := randomFormula(rng, d.Voc, n, 2)
		eng := NewEngine(d, nil)
		part := FullMin(d.N())
		if eng.MMEntails(g, part) && !eng.MMEntails(logic.Or(g, h), part) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: every minimal model yielded by the engine is a model and
// is minimal according to the brute-force definition.
func TestQuickMinimalModelsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := gen.Random(rng, gen.WithIntegrity(2+rng.Intn(4), 1+rng.Intn(6)))
		all := refsem.Models(d)
		ok := true
		NewEngine(d, nil).MinimalModels(0, func(m logic.Interp) bool {
			if !d.Sat(m) {
				ok = false
				return false
			}
			for _, o := range all {
				if o.ProperSubsetOf(m) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMinimalityCheckSATvsNaive(b *testing.B) {
	// Ablation (DESIGN.md §8): one SAT-based minimality check vs naive
	// subset enumeration over the model's true atoms.
	for _, n := range []int{8, 12, 16} {
		rng := rand.New(rand.NewSource(42))
		d := gen.Random(rng, gen.Positive(n, 2*n))
		eng := NewEngine(d, nil)
		ok, m := eng.HasModel()
		if !ok {
			b.Fatal("positive DB must be satisfiable")
		}
		b.Run(fmt.Sprintf("sat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.IsMinimal(m)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveIsMinimal(d, m)
			}
		})
	}
}

// naiveIsMinimal enumerates all proper subsets of m's true atoms.
func naiveIsMinimal(d *db.DB, m logic.Interp) bool {
	atoms := m.True.Elements()
	k := len(atoms)
	if k > 24 {
		return true
	}
	for mask := 0; mask < 1<<uint(k)-1; mask++ {
		sub := logic.NewInterp(d.N())
		for i, a := range atoms {
			if mask&(1<<uint(i)) != 0 {
				sub.True.Set(a)
			}
		}
		if d.Sat(sub) {
			return false
		}
	}
	return true
}

func TestMMEntailsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	failures := 0
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		f := randomFormula(rng, d.Voc, n, 3)
		eng := NewEngine(d, nil)
		part := FullMin(d.N())
		holds, w := eng.MMEntailsWitness(f, part)
		if holds != eng.MMEntails(f, part) {
			t.Fatalf("iter %d: witness variant disagrees with MMEntails", iter)
		}
		if holds {
			continue
		}
		failures++
		// The witness must be a minimal model of DB violating f.
		if !d.Sat(w) {
			t.Fatalf("iter %d: witness is not a model", iter)
		}
		if f.Eval(w) {
			t.Fatalf("iter %d: witness satisfies the formula", iter)
		}
		if !eng.IsMinimal(w) {
			t.Fatalf("iter %d: witness is not minimal", iter)
		}
	}
	if failures == 0 {
		t.Fatalf("corpus produced no failed entailments")
	}
}
