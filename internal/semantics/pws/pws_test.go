package pws

import (
	"math/rand"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
)

func TestRegisteredBothNames(t *testing.T) {
	p, ok1 := core.New("PWS", core.Options{})
	m, ok2 := core.New("PMS", core.Options{})
	if !ok1 || !ok2 || p.Name() != "PWS" || m.Name() != "PMS" {
		t.Fatalf("PWS/PMS registration broken")
	}
}

func TestSplitProgramSemantics(t *testing.T) {
	// DB = {a∨b, c←a∧b}: possible models are {a}, {b}, {a,b,c} —
	// note {a,b} is NOT possible ({a,b} split derives c) and {a,c} is
	// not possible either (c needs both a and b).
	d := dbtest.MustParse("a | b. c :- a, b.")
	s := New(core.Options{})
	var got []string
	if _, err := s.Models(d, 0, func(m logic.Interp) bool {
		got = append(got, m.String(d.Voc))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"{a}": true, "{b}": true, "{a, b, c}": true}
	if len(got) != 3 {
		t.Fatalf("possible models = %v, want 3", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected possible model %s", g)
		}
	}
}

func TestPWSDiffersFromDDR(t *testing.T) {
	// On DB = {a∨b, c←a∧b}, the formula ¬c ∨ (a∧b) holds in every
	// possible model but fails in the DDR model {a,c}.
	d := dbtest.MustParse("a | b. c :- a, b.")
	s := New(core.Options{})
	f := logic.MustParseFormula("-c | (a & b)", d.Voc)
	got, err := s.InferFormula(d, f)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatalf("PWS must infer ¬c ∨ (a∧b)")
	}
	if refsem.Entails(refsem.DDR(d), f) {
		t.Fatalf("DDR should NOT infer ¬c ∨ (a∧b) — the semantics differ here")
	}
}

func TestTractableCellUsesNoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	s := New(core.Options{})
	for iter := 0; iter < 50; iter++ {
		d := gen.Random(rng, gen.Positive(4+rng.Intn(8), 1+rng.Intn(10)))
		before := s.Oracle().Counters().NPCalls
		a := logic.Atom(rng.Intn(d.N()))
		if _, err := s.InferLiteral(d, logic.NegLit(a)); err != nil {
			t.Fatal(err)
		}
		if after := s.Oracle().Counters().NPCalls; after != before {
			t.Fatalf("tractable PWS cell consumed %d oracle calls", after-before)
		}
	}
}

func TestIntegrityClausesRespected(t *testing.T) {
	// Unlike DDR, PWS respects integrity clauses (Chan's improvement):
	// in Example 3.1, PWS infers ¬c.
	d := dbtest.MustParse("a | b. :- a, b. c :- a, b.")
	s := New(core.Options{})
	c, _ := d.Voc.Lookup("c")
	got, err := s.InferLiteral(d, logic.NegLit(c))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatalf("PWS must infer ¬c in Example 3.1 (integrity clause kills the {a,b,c} world)")
	}
}

func TestNegationUnsupported(t *testing.T) {
	d := dbtest.MustParse("a :- not b.")
	s := New(core.Options{})
	if _, err := s.InferLiteral(d, logic.PosLit(0)); err != core.ErrUnsupported {
		t.Fatalf("PWS with negation should be unsupported, got %v", err)
	}
}

func TestHasModel(t *testing.T) {
	s := New(core.Options{})
	if ok, _ := s.HasModel(dbtest.MustParse("a | b.")); !ok {
		t.Fatalf("PWS model must exist without ICs")
	}
	if ok, _ := s.HasModel(dbtest.MustParse("a | b. :- a. :- b.")); ok {
		t.Fatalf("no possible world survives the ICs")
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
