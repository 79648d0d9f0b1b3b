package strat

import (
	"math/rand"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
)

func TestStratifyPositive(t *testing.T) {
	d := dbtest.MustParse("a | b. c :- a.")
	s, ok := Compute(d)
	if !ok {
		t.Fatalf("positive DB must stratify")
	}
	if !Check(d, s) {
		t.Fatalf("Check rejects computed stratification")
	}
	if s.R != 1 {
		t.Fatalf("positive DB should be a single stratum, got %d", s.R)
	}
}

func TestStratifyLayered(t *testing.T) {
	d := dbtest.MustParse("b. a :- not b. c :- not a.")
	s, ok := Compute(d)
	if !ok {
		t.Fatalf("must stratify")
	}
	if !Check(d, s) {
		t.Fatalf("invalid stratification")
	}
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")
	c, _ := d.Voc.Lookup("c")
	if !(s.Level[b] < s.Level[a] && s.Level[a] < s.Level[c]) {
		t.Fatalf("levels wrong: b=%d a=%d c=%d", s.Level[b], s.Level[a], s.Level[c])
	}
	if s.R != 3 {
		t.Fatalf("want 3 strata, got %d", s.R)
	}
}

func TestUnstratifiable(t *testing.T) {
	for _, src := range []string{
		"a :- not a.",
		"a :- not b. b :- not a.",
		"a :- b. b :- not c. c :- a.",
	} {
		d := dbtest.MustParse(src)
		if _, ok := Compute(d); ok {
			t.Fatalf("%q should not stratify", src)
		}
	}
}

func TestHeadAtomsShareStratum(t *testing.T) {
	// a and b share a head; b is negated below c; a must sit with b.
	d := dbtest.MustParse("a | b. c :- not b.")
	s, ok := Compute(d)
	if !ok {
		t.Fatalf("must stratify")
	}
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")
	if s.Level[a] != s.Level[b] {
		t.Fatalf("head atoms must share a stratum: a=%d b=%d", s.Level[a], s.Level[b])
	}
	if !Check(d, s) {
		t.Fatalf("invalid stratification")
	}
}

func TestDisjunctiveHeadCycleThroughNegation(t *testing.T) {
	// Head sharing forces a,b together; b :- not a then needs
	// level(b) > level(a) = level(b): unstratifiable.
	d := dbtest.MustParse("a | b. b :- not a.")
	if _, ok := Compute(d); ok {
		t.Fatalf("should not stratify: negation inside a head-equivalence class")
	}
}

func TestCheckRejectsBadStratification(t *testing.T) {
	d := dbtest.MustParse("b. a :- not b.")
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")
	bad := Stratification{Level: make([]int, d.N()), R: 1}
	if Check(d, bad) {
		t.Fatalf("flat stratification must be rejected (negation inside stratum)")
	}
	good := Stratification{Level: make([]int, d.N()), R: 2}
	good.Level[a] = 1
	good.Level[b] = 0
	if !Check(d, good) {
		t.Fatalf("valid stratification rejected")
	}
}

func TestGeneratedStratifiedAlwaysStratifies(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 300; iter++ {
		d := gen.RandomStratified(rng, 2+rng.Intn(6), 1+rng.Intn(10), 1+rng.Intn(4))
		s, ok := Compute(d)
		if !ok {
			t.Fatalf("iter %d: generator output must stratify\nDB:\n%s", iter, d.String())
		}
		if !Check(d, s) {
			t.Fatalf("iter %d: computed stratification invalid\nDB:\n%s", iter, d.String())
		}
	}
}

func TestLayers(t *testing.T) {
	d := dbtest.MustParse("b. a :- not b. c :- not a.")
	s, _ := Compute(d)
	layers := Layers(d, s)
	if len(layers) != s.R {
		t.Fatalf("layer count %d != R %d", len(layers), s.R)
	}
	total := 0
	for _, l := range layers {
		total += len(l.Clauses)
	}
	if total != len(d.Clauses) {
		t.Fatalf("layers lost clauses: %d != %d", total, len(d.Clauses))
	}
}

func TestPriorityTransitivity(t *testing.T) {
	d := dbtest.MustParse("a :- not b. b :- not c.")
	p := NewPriority(d, nil)
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")
	c, _ := d.Voc.Lookup("c")
	if !p.Less(int(a), int(b)) || !p.Less(int(b), int(c)) {
		t.Fatalf("direct priorities missing")
	}
	if !p.Less(int(a), int(c)) {
		t.Fatalf("priority must be transitive")
	}
}

func TestPriorityHeadEquivalence(t *testing.T) {
	d := dbtest.MustParse("a | b.")
	p := NewPriority(d, nil)
	a, _ := d.Voc.Lookup("a")
	b, _ := d.Voc.Lookup("b")
	if !p.Leq(int(a), int(b)) || !p.Leq(int(b), int(a)) {
		t.Fatalf("head atoms must be priority-equivalent")
	}
	if p.Less(int(a), int(b)) || p.Less(int(b), int(a)) {
		t.Fatalf("equivalence must not be strict")
	}
}

func TestPriorityReflexive(t *testing.T) {
	d := dbtest.MustParse("a.")
	p := NewPriority(d, nil)
	if !p.Leq(0, 0) || p.Less(0, 0) {
		t.Fatalf("reflexivity broken")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		src  string
		want db.Class
	}{
		{"a | b.", db.ClassPositiveDDB},
		{"a. :- a, b.", db.ClassDDDB},
		{"b. a :- not b.", db.ClassDSDB},
		{"a :- not a.", db.ClassDNDB},
	}
	for _, tc := range cases {
		if got := Classify(dbtest.MustParse(tc.src)); got != tc.want {
			t.Fatalf("%q: Classify = %v, want %v", tc.src, got, tc.want)
		}
	}
}
