package oracle

import (
	"math/rand"
	"testing"

	"disjunct/internal/logic"
)

func TestSatAndCounting(t *testing.T) {
	o := NewNP()
	v := logic.NewVocabulary()
	a := v.Intern("a")
	b := v.Intern("b")
	cnf := logic.CNF{{logic.PosLit(a), logic.PosLit(b)}, {logic.NegLit(a)}}
	ok, m := o.Sat(2, cnf)
	if !ok {
		t.Fatalf("satisfiable CNF reported unsat")
	}
	if m.Holds(a) || !m.Holds(b) {
		t.Fatalf("model wrong: %v", m)
	}
	if o.Counters().NPCalls != 1 {
		t.Fatalf("counter = %d, want 1", o.Counters().NPCalls)
	}
	cnf = append(cnf, logic.Clause{logic.NegLit(b)})
	if ok, _ := o.Sat(2, cnf); ok {
		t.Fatalf("unsat CNF reported sat")
	}
	if o.Counters().NPCalls != 2 {
		t.Fatalf("counter = %d, want 2", o.Counters().NPCalls)
	}
	o.Reset()
	if o.Counters().NPCalls != 0 {
		t.Fatalf("reset failed")
	}
}

func TestValid(t *testing.T) {
	o := NewNP()
	v := logic.NewVocabulary()
	f := logic.MustParseFormula("a | -a", v)
	if !o.Valid(f, v) {
		t.Fatalf("tautology not recognised")
	}
	g := logic.MustParseFormula("a & -a", v)
	if o.Valid(g, v) {
		t.Fatalf("contradiction reported valid")
	}
	h := logic.MustParseFormula("a -> a & a", v)
	if !o.Valid(h, v) {
		t.Fatalf("valid implication not recognised")
	}
}

func TestEntails(t *testing.T) {
	o := NewNP()
	v := logic.NewVocabulary()
	a := v.Intern("a")
	b := v.Intern("b")
	cnf := logic.CNF{{logic.PosLit(a)}, {logic.NegLit(a), logic.PosLit(b)}}
	if !o.Entails(2, cnf, logic.MustParseFormula("b", v), v) {
		t.Fatalf("a ∧ (a→b) must entail b")
	}
	if o.Entails(2, cnf, logic.MustParseFormula("-b", v), v) {
		t.Fatalf("must not entail ¬b")
	}
}

func TestCountersAddAndString(t *testing.T) {
	var c Counters
	c.Add(Counters{NPCalls: 2, Sigma2Calls: 1, SATConfl: 5})
	c.Add(Counters{NPCalls: 1})
	if c.NPCalls != 3 || c.Sigma2Calls != 1 || c.SATConfl != 5 {
		t.Fatalf("Add wrong: %+v", c)
	}
	if c.String() == "" {
		t.Fatalf("String empty")
	}
}

func TestSatSolverIncremental(t *testing.T) {
	o := NewNP()
	v := logic.NewVocabulary()
	a := v.Intern("a")
	cnf := logic.CNF{{logic.PosLit(a)}}
	s, release := o.SatSolver(1, cnf)
	defer release()
	if got := s.Solve(); got.String() != "SAT" {
		t.Fatalf("solver wrong: %v", got)
	}
	if !s.Model(0) {
		t.Fatalf("a should be true")
	}
}

func TestRandomAgreesWithEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(5)
		v := logic.NewVocabulary()
		for i := 0; i < n; i++ {
			v.Intern(string(rune('a' + i)))
		}
		var cnf logic.CNF
		for i := 0; i < 1+rng.Intn(3*n); i++ {
			var cl logic.Clause
			for j := 0; j < 1+rng.Intn(3); j++ {
				cl = append(cl, logic.MkLit(logic.Atom(rng.Intn(n)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		want := false
		for bits := 0; bits < 1<<uint(n) && !want; bits++ {
			m := logic.NewInterp(n)
			for j := 0; j < n; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			want = logic.EvalCNF(cnf, m)
		}
		o := NewNP()
		got, model := o.Sat(n, cnf)
		if got != want {
			t.Fatalf("iter %d: oracle=%v brute=%v", iter, got, want)
		}
		if got && !logic.EvalCNF(cnf, model) {
			t.Fatalf("iter %d: oracle model invalid", iter)
		}
	}
}
