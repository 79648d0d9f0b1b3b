package pdsm

import (
	"math/rand"
	"sort"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
)

func TestRegistered(t *testing.T) {
	if _, ok := core.New("PDSM", core.Options{}); !ok {
		t.Fatalf("PDSM not registered")
	}
}

func collectPartials(t *testing.T, s *Sem, d *db.DB) []logic.Partial {
	t.Helper()
	var out []logic.Partial
	if _, err := s.PartialModels(d, 0, func(p logic.Partial) bool {
		out = append(out, p.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func samePartialSet(a, b []logic.Partial) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, p := range a {
		seen[p.Key()]++
	}
	for _, p := range b {
		if seen[p.Key()] == 0 {
			return false
		}
		seen[p.Key()]--
	}
	return true
}

func TestWellFoundedExample(t *testing.T) {
	// {a ← ¬a}: the unique partial stable model has a undefined —
	// PDSM extends the well-founded semantics.
	d := dbtest.MustParse("a :- not a.")
	s := New(core.Options{})
	ps := collectPartials(t, s, d)
	if len(ps) != 1 {
		t.Fatalf("got %d partial stable models, want 1", len(ps))
	}
	a, _ := d.Voc.Lookup("a")
	if ps[0].Value(a) != logic.Undefined {
		t.Fatalf("a should be undefined, got %v", ps[0].Value(a))
	}
	// Consequently DSM has no model but PDSM does (the distinction the
	// two Σ₂ᵖ ∃model cells share only in the general bound).
	if ok, _ := s.HasModel(d); !ok {
		t.Fatalf("PDSM model must exist for {a←¬a}")
	}
}

func TestEvenLoopPartialModels(t *testing.T) {
	// {a ← ¬b, b ← ¬a}: partial stable models are {a=1,b=0},
	// {a=0,b=1} and the well-founded {a=½, b=½}.
	d := dbtest.MustParse("a :- not b. b :- not a.")
	s := New(core.Options{})
	ps := collectPartials(t, s, d)
	if len(ps) != 3 {
		var desc []string
		for _, p := range ps {
			desc = append(desc, p.String(d.Voc))
		}
		t.Fatalf("got %d partial stable models (%v), want 3", len(ps), desc)
	}
}

func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	s := New(core.Options{})
	for iter := 0; iter < 200; iter++ {
		d := gen.Random(rng, gen.Normal(2+rng.Intn(3), 1+rng.Intn(6)))
		want := refsem.PDSM(d)
		got := collectPartials(t, s, d)
		if !samePartialSet(want, got) {
			t.Fatalf("iter %d: PDSM mismatch: want %d got %d\nDB:\n%s",
				iter, len(want), len(got), d.String())
		}
	}
}

func TestPositiveDBTotalPartialsAreMinimalModels(t *testing.T) {
	// Paper: PDSM coincides with DSM on positive DBs, and DSM = MM
	// there; so the TOTAL partial stable models are exactly MM(DB).
	rng := rand.New(rand.NewSource(102))
	s := New(core.Options{})
	for iter := 0; iter < 100; iter++ {
		d := gen.Random(rng, gen.Positive(2+rng.Intn(3), 1+rng.Intn(5)))
		var got []logic.Interp
		if _, err := s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !refsem.SameModelSet(refsem.MinimalModels(d), got) {
			t.Fatalf("iter %d: total PDSM ≠ MM on positive DB\nDB:\n%s", iter, d.String())
		}
	}
}

func TestTotalPartialStableAreStable(t *testing.T) {
	// Total partial stable models must coincide with DSM(DB).
	rng := rand.New(rand.NewSource(103))
	s := New(core.Options{})
	for iter := 0; iter < 150; iter++ {
		d := gen.Random(rng, gen.Normal(2+rng.Intn(3), 1+rng.Intn(5)))
		var got []logic.Interp
		if _, err := s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !refsem.SameModelSet(refsem.DSM(d), got) {
			t.Fatalf("iter %d: total PDSM ≠ DSM\nDB:\n%s", iter, d.String())
		}
	}
}

func TestInferenceThreeValued(t *testing.T) {
	// In {a←¬a} the unique PSM has a=½, so neither a nor ¬a is
	// inferred, but a∨¬a is still NOT inferred 3-valuedly (value ½) —
	// the semantics is genuinely 3-valued.
	d := dbtest.MustParse("a :- not a.")
	s := New(core.Options{})
	a, _ := d.Voc.Lookup("a")
	if got, _ := s.InferLiteral(d, logic.PosLit(a)); got {
		t.Fatalf("a must not be inferred")
	}
	if got, _ := s.InferLiteral(d, logic.NegLit(a)); got {
		t.Fatalf("¬a must not be inferred")
	}
	f := logic.MustParseFormula("a | -a", d.Voc)
	if got, _ := s.InferFormula(d, f); got {
		t.Fatalf("a ∨ ¬a has value ½, must not be inferred")
	}
}

func TestIsPartialStableSpotChecks(t *testing.T) {
	d := dbtest.MustParse("a :- not b. b :- not a.")
	s := New(core.Options{})
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")

	wf := logic.NewPartial(2)
	wf.SetValue(a, logic.Undefined)
	wf.SetValue(b, logic.Undefined)
	if !s.IsPartialStable(d, wf) {
		t.Fatalf("well-founded model should be partial stable")
	}

	tot := logic.NewPartial(2)
	tot.SetValue(a, logic.True)
	if !s.IsPartialStable(d, tot) {
		t.Fatalf("{a} should be partial stable")
	}

	bad := logic.NewPartial(2)
	bad.SetValue(a, logic.True)
	bad.SetValue(b, logic.True)
	if s.IsPartialStable(d, bad) {
		t.Fatalf("{a,b} should not be partial stable")
	}
}

func TestHasModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	s := New(core.Options{})
	for iter := 0; iter < 150; iter++ {
		d := gen.Random(rng, gen.Normal(2+rng.Intn(3), 1+rng.Intn(5)))
		want := len(refsem.PDSM(d)) > 0
		got, err := s.HasModel(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: HasModel=%v want %v\nDB:\n%s", iter, got, want, d.String())
		}
	}
}

// randomClassDB draws a database from one of the five shape classes
// the cold request mix uses: positive, with integrity clauses, normal
// without integrity clauses, normal, and stratified.
func randomClassDB(rng *rand.Rand, atoms, clauses int) *db.DB {
	switch rng.Intn(5) {
	case 0:
		return gen.Random(rng, gen.Positive(atoms, clauses))
	case 1:
		return gen.Random(rng, gen.WithIntegrity(atoms, clauses))
	case 2:
		return gen.Random(rng, gen.NormalNoIC(atoms, clauses))
	case 3:
		return gen.Random(rng, gen.Normal(atoms, clauses))
	default:
		return gen.RandomStratified(rng, atoms, clauses, 2+rng.Intn(2))
	}
}

// walkRank orders partial interpretations the way PartialModels walks
// them: atom 0 most significant, False < Undefined < True.
func walkRank(p logic.Partial) int {
	r := 0
	for v := 0; v < p.N(); v++ {
		r = 3*r + int(p.Value(logic.Atom(v)))
	}
	return r
}

// TestPartialModelsExactAndNPCalls pins the pruned 3ⁿ walk: unlimited
// PartialModels yields exactly refsem.PDSM in walk order, and spends
// one NP call per candidate p with p ⊨₃ DB^p other than the all-false
// one — pruning never drops an oracle candidate and never adds one.
func TestPartialModelsExactAndNPCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for iter := 0; iter < 150; iter++ {
		d := randomClassDB(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		want := refsem.PDSM(d)
		sort.SliceStable(want, func(i, j int) bool { return walkRank(want[i]) < walkRank(want[j]) })
		s := New(core.Options{})
		got := collectPartials(t, s, d)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i].Equal(want[i])
		}
		if !same {
			t.Fatalf("iter %d: PartialModels yielded %d models, refsem.PDSM %d, or a different order\nDB:\n%s",
				iter, len(got), len(want), d.String())
		}
		all, err := refsem.AllPartials(d.N())
		if err != nil {
			t.Fatal(err)
		}
		var candidates int64
		for _, p := range all {
			if Sat3(d, p) && !p.Equal(logic.NewPartial(d.N())) {
				candidates++
			}
		}
		if np := s.Oracle().Counters().NPCalls; np != candidates {
			t.Fatalf("iter %d: %d NP calls, want %d (one per candidate with p ⊨₃ DB^p, p ≠ all-false)\nDB:\n%s",
				iter, np, candidates, d.String())
		}
	}
}

// BenchmarkPartialModelsCold enumerates the partial stable models of
// databases shaped like cold requests — 5–9 atoms, 3–6 clauses, all
// five classes — each on a fresh semantics instance.
func BenchmarkPartialModelsCold(b *testing.B) {
	rng := rand.New(rand.NewSource(106))
	dbs := make([]*db.DB, 64)
	for i := range dbs {
		dbs[i] = randomClassDB(rng, 5+rng.Intn(5), 3+rng.Intn(4))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(core.Options{})
		if _, err := s.PartialModels(dbs[i%len(dbs)], 0, func(logic.Partial) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
