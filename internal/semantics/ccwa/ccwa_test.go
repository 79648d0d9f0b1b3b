package ccwa

import (
	"math/rand"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/refsem"
)

// mkPartition builds a models.Partition plus the map form used by the
// reference implementation.
func mkPartition(rng *rand.Rand, n int) (models.Partition, map[int]bool, map[int]bool) {
	p, q := map[int]bool{}, map[int]bool{}
	var ps, zs []logic.Atom
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			p[v] = true
			ps = append(ps, logic.Atom(v))
		case 1:
			q[v] = true
		default:
			zs = append(zs, logic.Atom(v))
		}
	}
	return models.NewPartition(n, ps, zs), p, q
}

func newSem(part *models.Partition) *Sem {
	return New(core.Options{Partition: part})
}

func TestRegistered(t *testing.T) {
	if _, ok := core.New("CCWA", core.Options{}); !ok {
		t.Fatalf("CCWA not registered")
	}
}

func TestPaperPartitionExample(t *testing.T) {
	// §2 of the paper: DB = {a∨b; a∨c ← b; c ← a∧b (—adapted—)} is not
	// given in full; instead use its explicit partition example:
	// V = {a,b,c}, P = {a}, Q = {b}, Z = {c} over DB = {a ∨ b}.
	// MM(DB;P;Z) per the paper: {b},{b,c},{a},{a,c}.
	d := dbtest.MustParse("a | b.")
	d.Voc.Intern("c")
	a, _ := d.Voc.Lookup("a")
	c, _ := d.Voc.Lookup("c")
	part := models.NewPartition(3, []logic.Atom{a}, []logic.Atom{c})
	eng := models.NewEngine(d, nil)
	var got []logic.Interp
	models.Drain(eng.IterateModels(0), func(m logic.Interp) bool {
		if eng.IsMinimalPZ(m, part) {
			got = append(got, m.Clone())
		}
		return true
	})
	want := map[string]bool{"{b}": true, "{b, c}": true, "{a}": true, "{a, c}": true}
	if len(got) != 4 {
		t.Fatalf("MM(DB;P;Z) size = %d, want 4", len(got))
	}
	for _, m := range got {
		if !want[m.String(d.Voc)] {
			t.Fatalf("unexpected (P;Z)-minimal model %s", m.String(d.Voc))
		}
	}
}

func TestModelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		part, p, q := mkPartition(rng, n)
		s := newSem(&part)
		want := refsem.CCWA(d, p, q)
		var got []logic.Interp
		if _, err := s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !refsem.SameModelSet(want, got) {
			t.Fatalf("iter %d: CCWA model set mismatch\nDB:\n%sP=%v Q=%v\nwant %d got %d",
				iter, d.String(), p, q, len(want), len(got))
		}
	}
}

func TestInferLiteralMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		part, p, q := mkPartition(rng, n)
		s := newSem(&part)
		set := refsem.CCWA(d, p, q)
		a := logic.Atom(rng.Intn(n))
		for _, l := range []logic.Lit{logic.PosLit(a), logic.NegLit(a)} {
			want := refsem.Entails(set, logic.LitF(l))
			got, err := s.InferLiteral(d, l)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("iter %d: InferLiteral(%s)=%v want %v\nDB:\n%sP=%v Q=%v",
					iter, d.Voc.LitString(l), got, want, d.String(), p, q)
			}
		}
	}
}

func TestInferFormulaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(5)))
		part, p, q := mkPartition(rng, n)
		s := newSem(&part)
		f := randomFormula(rng, n, 3)
		want := refsem.Entails(refsem.CCWA(d, p, q), f)
		got, err := s.InferFormula(d, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: InferFormula=%v want %v\nDB:\n%sF: %s P=%v Q=%v",
				iter, got, want, d.String(), f.String(d.Voc), p, q)
		}
	}
}

func TestDeltaLogAgreesWithDirectUnderPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(3)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(5)))
		part, _, _ := mkPartition(rng, n)
		s := newSem(&part)
		f := randomFormula(rng, n, 2)
		direct, _ := s.InferFormula(d, f)
		dlog, err := s.InferFormulaDeltaLog(d, f)
		if err != nil {
			t.Fatal(err)
		}
		if direct != dlog {
			t.Fatalf("iter %d: Δ-log=%v direct=%v\nDB:\n%sF: %s",
				iter, dlog, direct, d.String(), f.String(d.Voc))
		}
	}
}

func TestCCWAWithFullPartitionIsGCWA(t *testing.T) {
	// "GCWA coincides with CCWA for Q = Z = ∅."
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		s := newSem(nil) // defaults to P = V
		var got []logic.Interp
		s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		})
		if !refsem.SameModelSet(refsem.GCWA(d), got) {
			t.Fatalf("iter %d: CCWA(P=V) ≠ GCWA\nDB:\n%s", iter, d.String())
		}
	}
}

func TestHasModel(t *testing.T) {
	s := newSem(nil)
	if ok, _ := s.HasModel(dbtest.MustParse("a | b. c :- b.")); !ok {
		t.Fatalf("want model")
	}
	if ok, _ := s.HasModel(dbtest.MustParse("a | b. :- a. :- b.")); ok {
		t.Fatalf("want no model")
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
