package db

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"disjunct/internal/logic"
)

// Property: the parser never panics on arbitrary byte soup — it either
// parses or returns an error.
func TestParserNeverPanics(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: rendering a random database and re-parsing it yields a
// semantically identical database (same models).
func TestRenderParseSemanticRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	for iter := 0; iter < 300; iter++ {
		d := randomDB(rng)
		d2, err := Parse(d.String())
		if err != nil {
			t.Fatalf("iter %d: rendered DB does not parse: %v\n%s", iter, err, d.String())
		}
		if d2.N() > d.N() {
			t.Fatalf("iter %d: round trip grew the vocabulary", iter)
		}
		n := d.N()
		for bits := 0; bits < 1<<uint(n); bits++ {
			m := logic.NewInterp(n)
			m2 := logic.NewInterp(d2.N())
			for v := 0; v < n; v++ {
				if bits&(1<<uint(v)) == 0 {
					continue
				}
				m.True.Set(v)
				// Map by name: the re-parse may order atoms differently.
				if a2, ok := d2.Voc.Lookup(d.Voc.Name(logic.Atom(v))); ok {
					m2.True.Set(int(a2))
				}
			}
			if d.Sat(m) != d2.Sat(m2) {
				t.Fatalf("iter %d: round trip changed semantics\n%s\nvs\n%s", iter, d.String(), d2.String())
			}
		}
	}
}

// Property: whitespace and comments are irrelevant. (Periods inside
// identifiers are legal, so a space must follow each clause
// terminator — "b.c" is one atom.)
func TestParserWhitespaceInsensitive(t *testing.T) {
	compact := "a|b. c:-a,not d. :-c,b."
	spaced := `
		a | b .   % heads
		c :- a , not d .
		:- c , b .
	`
	d1 := MustParse(compact)
	d2 := MustParse(spaced)
	if d1.String() != d2.String() {
		t.Fatalf("whitespace changed parse:\n%s\nvs\n%s", d1.String(), d2.String())
	}
}

// Property: Normalize is idempotent.
func TestNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	for iter := 0; iter < 500; iter++ {
		d := randomDB(rng)
		for _, c := range d.Clauses {
			again := c.Clone().Normalize()
			if len(again.Head) != len(c.Head) || len(again.PosBody) != len(c.PosBody) {
				t.Fatalf("Normalize not idempotent: %+v vs %+v", c, again)
			}
		}
	}
}

// TestNotIsReserved lists every input shape whose acceptance changed
// when "not" became a keyword in every position: each names an atom
// "not" and is now refused with ErrReservedWord. The accepted column
// pins the neighbours that still parse, each round-tripping through
// String.
func TestNotIsReserved(t *testing.T) {
	for _, in := range []string{
		":-A&not A&not.", // its rendering ":- A, not, not A." did not parse
		"not.",
		"not | a.",
		"a | not.",
		"a; not :- b.",
		"a :- not.",
		"a :- b, not.",
		":- not.",
		":- a & not.",
		"a :- not not.",
		"a :- ~not.",
		"a :- -not.",
		"a :- not\n  not.",
	} {
		_, err := Parse(in)
		if !errors.Is(err, ErrReservedWord) {
			t.Errorf("Parse(%q) = %v, want ErrReservedWord", in, err)
		}
	}
	for _, in := range []string{
		"a :- not b.",
		"nota :- notb, not note.",
		"not.x :- not not.y.",
		"a :- not.b.",
		"knot | not_ | not1.",
	} {
		d, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		again, err := Parse(d.String())
		if err != nil || again.String() != d.String() {
			t.Errorf("%q renders as %q, which parses as %v (err %v)", in, d.String(), again, err)
		}
	}
}
