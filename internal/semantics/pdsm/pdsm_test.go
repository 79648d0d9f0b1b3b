package pdsm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
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

// classes names the five shape classes the cold request mix uses.
var classes = [...]string{"positive", "integrity", "normal-noIC", "normal", "stratified"}

// classDB draws a database of shape class k (an index into classes).
func classDB(rng *rand.Rand, k, atoms, clauses int) *db.DB {
	switch k {
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

// randomClassDB draws a database from a random one of the five classes.
func randomClassDB(rng *rand.Rand, atoms, clauses int) *db.DB {
	return classDB(rng, rng.Intn(len(classes)), atoms, clauses)
}

// checkReference compares PartialModels, as a set, and HasModel with
// refsem.PDSM.
func checkReference(t *testing.T, label string, d *db.DB) {
	t.Helper()
	want := refsem.PDSM(d)
	s := New(core.Options{})
	if got := collectPartials(t, s, d); !samePartialSet(want, got) {
		t.Fatalf("%s: %d partial stable models, refsem %d\nDB:\n%s", label, len(got), len(want), d.String())
	}
	has, err := s.HasModel(d)
	if err != nil {
		t.Fatalf("%s: HasModel: %v", label, err)
	}
	if has != (len(want) > 0) {
		t.Fatalf("%s: HasModel = %v, refsem %v\nDB:\n%s", label, has, len(want) > 0, d.String())
	}
}

// TestMatchesReference is the differential corpus: seeds 1–3 ×
// n = 1…9 × the five classes, with fewer draws above n = 6, where
// refsem.PDSM's walk over 3ⁿ candidates dominates.
func TestMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for n := 1; n <= 9; n++ {
			draws := 30
			if n > 6 {
				draws = 2
			}
			for k, class := range classes {
				for i := 0; i < draws; i++ {
					d := classDB(rng, k, n, 1+rng.Intn(n+2))
					checkReference(t, fmt.Sprintf("seed %d n=%d %s #%d", seed, n, class, i), d)
				}
			}
		}
	}
}

// TestPartialModelsExactAndNPCalls pins the generator's oracle work:
// PartialModels yields exactly refsem.PDSM, and its NP calls are those
// of enumerating the minimal models of translate(d), plus one reduct
// check per candidate other than the all-false one on a database with
// negation, and none without.
func TestPartialModelsExactAndNPCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for iter := 0; iter < 150; iter++ {
		d := randomClassDB(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		s := New(core.Options{})
		if got, want := collectPartials(t, s, d), refsem.PDSM(d); !samePartialSet(want, got) {
			t.Fatalf("iter %d: PartialModels yielded %d models, refsem.PDSM %d\nDB:\n%s",
				iter, len(got), len(want), d.String())
		}
		o := oracle.NewNP()
		var checks int64
		if _, err := models.Drain(models.NewEngineCNF(2*d.N(), o, translate(d)).IterateMinimalModels(0), func(m logic.Interp) bool {
			if d.HasNegation() && !m.True.IsEmpty() {
				checks++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		enum := o.Counters().NPCalls
		if np := s.Oracle().Counters().NPCalls; np != enum+checks {
			t.Fatalf("iter %d: %d NP calls, want %d enumeration + %d reduct checks\nDB:\n%s",
				iter, np, enum, checks, d.String())
		}
	}
}

// TestPartialModelsLargeN runs every query kind at sizes the 3ⁿ walk
// refused: under a 1 s deadline each gives a verdict or a typed budget
// trip, never ErrUnsupported.
func TestPartialModelsLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, n := range []int{24, 40} {
		for k, class := range classes {
			d := classDB(rng, k, n, 3*n/2)
			for kind, query := range map[string]func(*Sem) error{
				"literal": func(s *Sem) error { _, err := s.InferLiteral(d, logic.PosLit(1)); return err },
				"formula": func(s *Sem) error {
					_, err := s.InferFormula(d, logic.Or(logic.AtomF(0), logic.Not(logic.AtomF(logic.Atom(n-1)))))
					return err
				},
				"model": func(s *Sem) error { _, err := s.HasModel(d); return err },
			} {
				o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{Deadline: time.Second}))
				start := time.Now()
				err := query(New(core.Options{Oracle: o}))
				if err != nil && !budget.Interrupted(err) {
					t.Errorf("%s n=%d %s: %v", class, n, kind, err)
				}
				if took := time.Since(start); took > 2*time.Second {
					t.Errorf("%s n=%d %s: answered after %v", class, n, kind, took)
				}
			}
		}
	}
}

// FuzzPDSMRefsem decodes small databases (n ≤ 6) from bytes and checks
// PartialModels and HasModel against refsem.PDSM. Byte 0 gives n; each
// following triple is a clause, head, positive body and negative body
// as atom bitmasks (an empty head is an integrity clause).
func FuzzPDSMRefsem(f *testing.F) {
	f.Add([]byte{1, 0b1, 0, 0b1})
	f.Add([]byte{2, 0b01, 0, 0b10, 0b10, 0, 0b01})
	f.Add([]byte{3, 0b011, 0, 0, 0b100, 0b001, 0b010, 0, 0b011, 0b100})
	f.Add([]byte{4, 0b0011, 0, 0b0100, 0b0100, 0b0001, 0b1000, 0b1000, 0, 0b0010, 0, 0b1100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%6
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
		for i := 1; i+2 < len(data) && i < 1+3*8; i += 3 {
			c := db.Clause{Head: atoms(data[i]), PosBody: atoms(data[i+1]), NegBody: atoms(data[i+2])}
			if len(c.Head)+len(c.PosBody)+len(c.NegBody) > 0 {
				d.Add(c)
			}
		}
		checkReference(t, "fuzz", d)
	})
}

// BenchmarkPartialModelsCold enumerates the partial stable models of
// databases shaped like cold requests — 5–9 atoms, 3–6 clauses, all
// five classes — each on a fresh semantics instance, and reports the
// NP calls per enumeration.
func BenchmarkPartialModelsCold(b *testing.B) {
	rng := rand.New(rand.NewSource(106))
	dbs := make([]*db.DB, 64)
	for i := range dbs {
		dbs[i] = randomClassDB(rng, 5+rng.Intn(5), 3+rng.Intn(4))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var np int64
	for i := 0; i < b.N; i++ {
		s := New(core.Options{})
		if _, err := s.PartialModels(dbs[i%len(dbs)], 0, func(logic.Partial) bool { return true }); err != nil {
			b.Fatal(err)
		}
		np += s.Oracle().Counters().NPCalls
	}
	b.ReportMetric(float64(np)/float64(b.N), "np/op")
}
