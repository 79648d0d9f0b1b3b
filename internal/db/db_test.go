package db

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"disjunct/internal/logic"
)

func TestParseBasics(t *testing.T) {
	d := MustParse(`
		% a comment
		a | b.            % disjunctive fact
		c :- a, b.        % definite rule
		d ; e :- c, not f. % semicolon heads, negation
		:- d, e.          % integrity clause
	`)
	if len(d.Clauses) != 4 {
		t.Fatalf("parsed %d clauses, want 4", len(d.Clauses))
	}
	if d.N() != 6 {
		t.Fatalf("vocabulary size %d, want 6", d.N())
	}
	if !d.HasNegation() || !d.HasIntegrityClauses() {
		t.Fatalf("classification flags wrong")
	}
	c := d.Clauses[2]
	if len(c.Head) != 2 || len(c.PosBody) != 1 || len(c.NegBody) != 1 {
		t.Fatalf("third clause parsed wrong: %+v", c)
	}
	ic := d.Clauses[3]
	if !ic.IsIntegrity() || len(ic.PosBody) != 2 {
		t.Fatalf("integrity clause parsed wrong: %+v", ic)
	}
}

func TestParseNegationSyntaxes(t *testing.T) {
	for _, src := range []string{"a :- not b.", "a :- ~b.", "a :- -b."} {
		d := MustParse(src)
		if len(d.Clauses[0].NegBody) != 1 {
			t.Fatalf("%q: negation not recognised", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"a",         // missing period
		"a | .",     // dangling bar
		":- .",      // empty clause
		"a :- , b.", // dangling comma
		"| a.",      // leading bar
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("%q should fail", bad)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := "a | b. c :- a, not d. :- c, b."
	d := MustParse(src)
	d2 := MustParse(d.String())
	if len(d2.Clauses) != len(d.Clauses) {
		t.Fatalf("round trip lost clauses")
	}
	if d.String() != d2.String() {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

func TestClausePredicates(t *testing.T) {
	d := MustParse("a | b. c :- a. :- a, b. d :- not a.")
	cs := d.Clauses
	if !cs[0].IsFact() || cs[0].IsIntegrity() || !cs[0].IsPositive() {
		t.Fatalf("fact flags wrong")
	}
	if !cs[1].IsDefinite() {
		t.Fatalf("definite flag wrong")
	}
	if !cs[2].IsIntegrity() {
		t.Fatalf("integrity flag wrong")
	}
	if cs[3].IsPositive() || cs[3].IsDefinite() {
		t.Fatalf("negative clause flags wrong")
	}
}

func TestNormalizeDedups(t *testing.T) {
	d := New()
	a := d.Voc.Intern("a")
	b := d.Voc.Intern("b")
	d.AddRule([]logic.Atom{b, a, b}, []logic.Atom{a, a}, nil)
	c := d.Clauses[0]
	if len(c.Head) != 2 || len(c.PosBody) != 1 {
		t.Fatalf("normalize failed: %+v", c)
	}
	if c.Head[0] != a || c.Head[1] != b {
		t.Fatalf("normalize must sort: %+v", c.Head)
	}
}

func TestSat(t *testing.T) {
	d := MustParse("a | b. c :- a. :- b, c. e :- not a.")
	cases := []struct {
		atoms string
		want  bool
	}{
		{"a c", true}, // a∨b ✓, c←a ✓, ¬(b∧c) ✓, e←¬a vacuous
		{"a", false},  // c ← a violated
		{"b e", true},
		{"b", false},     // e ← ¬a needs e
		{"", false},      // a∨b violated
		{"a b c", false}, // IC violated
	}
	for _, tc := range cases {
		m := logic.NewInterp(d.N())
		for _, name := range strings.Fields(tc.atoms) {
			at, ok := d.Voc.Lookup(name)
			if !ok {
				t.Fatalf("unknown atom %q", name)
			}
			m.True.Set(int(at))
		}
		if got := d.Sat(m); got != tc.want {
			t.Fatalf("Sat({%s}) = %v, want %v", tc.atoms, got, tc.want)
		}
	}
}

func TestToCNFAgreesWithSat(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for iter := 0; iter < 300; iter++ {
		d := randomDB(rng)
		cnf := d.ToCNF()
		n := d.N()
		for bits := 0; bits < 1<<uint(n); bits++ {
			m := logic.NewInterp(n)
			for v := 0; v < n; v++ {
				m.True.SetTo(v, bits&(1<<uint(v)) != 0)
			}
			if d.Sat(m) != logic.EvalCNF(cnf, m) {
				t.Fatalf("iter %d: CNF disagrees with Sat\nDB:\n%s", iter, d.String())
			}
		}
	}
}

// ToCNF hands out windows of one literal slab; appending to one clause
// must reallocate it rather than write into the clause after it.
func TestToCNFClausesAreCapped(t *testing.T) {
	d := New()
	a, b, c := d.Voc.Intern("a"), d.Voc.Intern("b"), d.Voc.Intern("c")
	d.Clauses = []Clause{
		{Head: []logic.Atom{a}, PosBody: []logic.Atom{b}},
		{Head: []logic.Atom{b, c}, NegBody: []logic.Atom{a}},
	}
	cnf := d.ToCNF()
	next := append(logic.Clause(nil), cnf[1]...)
	grown := append(cnf[0], logic.PosLit(c), logic.NegLit(c))
	if len(grown) != 4 || len(cnf[0]) != 2 {
		t.Fatalf("append result %v, clause 0 now %v", grown, cnf[0])
	}
	if !slices.Equal(cnf[1], next) {
		t.Fatalf("append to clause 0 overwrote clause 1: %v, want %v", cnf[1], next)
	}
}

func randomDB(rng *rand.Rand) *DB {
	d := New()
	n := 2 + rng.Intn(4)
	atoms := make([]logic.Atom, n)
	for i := range atoms {
		atoms[i] = d.Voc.Intern(string(rune('a' + i)))
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		var c Clause
		for j := 0; j < rng.Intn(3); j++ {
			c.Head = append(c.Head, atoms[rng.Intn(n)])
		}
		for j := 0; j < rng.Intn(3); j++ {
			c.PosBody = append(c.PosBody, atoms[rng.Intn(n)])
		}
		for j := 0; j < rng.Intn(2); j++ {
			c.NegBody = append(c.NegBody, atoms[rng.Intn(n)])
		}
		if len(c.Head)+len(c.PosBody)+len(c.NegBody) == 0 {
			continue
		}
		d.Add(c)
	}
	return d
}

func TestReduct(t *testing.T) {
	d := MustParse("a :- not b. c :- not a. e | f :- a, not g.")
	a, _ := d.Voc.Lookup("a")
	m := logic.InterpOf(d.N(), a)
	red := d.Reduct(m)
	// c ← ¬a is blocked (a ∈ M); others survive without negation.
	if len(red.Clauses) != 2 {
		t.Fatalf("reduct has %d clauses, want 2\n%s", len(red.Clauses), red.String())
	}
	if red.HasNegation() {
		t.Fatalf("reduct must be positive")
	}
}

func TestHeadShift(t *testing.T) {
	d := MustParse("a :- b, not c, not e.")
	hs := d.HeadShift()
	c := hs.Clauses[0]
	if len(c.Head) != 3 || len(c.NegBody) != 0 || len(c.PosBody) != 1 {
		t.Fatalf("head shift wrong: %+v", c)
	}
	if hs.HasNegation() {
		t.Fatalf("head-shifted DB must be positive")
	}
}

func TestWithoutIntegrity(t *testing.T) {
	d := MustParse("a. :- a, b. b | c.")
	w := d.WithoutIntegrity()
	if len(w.Clauses) != 2 || w.HasIntegrityClauses() {
		t.Fatalf("WithoutIntegrity wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := MustParse("a | b.")
	c := d.Clone()
	c.Voc.Intern("zzz")
	c.Clauses[0].Head[0] = logic.Atom(1)
	if d.Voc.Size() != 2 || d.Clauses[0].Head[0] != 0 {
		t.Fatalf("Clone aliases state")
	}
}

func TestStatsAndValidate(t *testing.T) {
	d := MustParse("a | b | c. d :- a, not b. :- c.")
	s := d.Stats()
	if s.Atoms != 4 || s.Clauses != 3 || s.IntegrityClauses != 1 ||
		s.NegativeLiterals != 1 || s.MaxHead != 3 || s.Facts != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d.Clauses[0].Head[0] = logic.Atom(99)
	if err := d.Validate(); err == nil {
		t.Fatalf("Validate must catch out-of-range atoms")
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		src  string
		negP bool
		icP  bool
	}{
		{"a | b.", false, false},
		{"a. :- a, b.", false, true},
		{"a :- not b.", true, false},
		{"a :- not b. :- a.", true, true},
	}
	for _, tc := range cases {
		d := MustParse(tc.src)
		if d.HasNegation() != tc.negP {
			t.Fatalf("%q: HasNegation = %v", tc.src, d.HasNegation())
		}
		if d.HasIntegrityClauses() != tc.icP {
			t.Fatalf("%q: HasIntegrityClauses = %v", tc.src, d.HasIntegrityClauses())
		}
		if d.IsPositive() == tc.negP {
			t.Fatalf("%q: IsPositive inconsistent", tc.src)
		}
	}
}

// Property (testing/quick): the GL reduct of a positive database is
// the database itself, and reducts are always positive and no larger.
func TestQuickReductInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDB(rng)
		m := logic.NewInterp(d.N())
		for v := 0; v < d.N(); v++ {
			m.True.SetTo(v, rng.Intn(2) == 0)
		}
		red := d.Reduct(m)
		if red.HasNegation() || len(red.Clauses) > len(d.Clauses) {
			return false
		}
		if !d.HasNegation() && len(red.Clauses) != len(d.Clauses) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: head shifting preserves the classical models of positive
// clauses, and the shifted database is always positive with the same
// or fewer body literals.
func TestQuickHeadShiftInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDB(rng)
		hs := d.HeadShift()
		if hs.HasNegation() {
			return false
		}
		// On positive databases head shift is the identity up to
		// normalisation: same model sets.
		if !d.HasNegation() {
			n := d.N()
			for bits := 0; bits < 1<<uint(n); bits++ {
				m := logic.NewInterp(n)
				for v := 0; v < n; v++ {
					m.True.SetTo(v, bits&(1<<uint(v)) != 0)
				}
				if d.Sat(m) != hs.Sat(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every model of a database is a model of its reduct w.r.t.
// itself (half of the stable-model fixpoint condition).
func TestQuickReductSelfModels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDB(rng)
		n := d.N()
		for bits := 0; bits < 1<<uint(n); bits++ {
			m := logic.NewInterp(n)
			for v := 0; v < n; v++ {
				m.True.SetTo(v, bits&(1<<uint(v)) != 0)
			}
			if d.Sat(m) && !d.Reduct(m).Sat(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
