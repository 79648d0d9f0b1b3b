package disjunct_test

// Native fuzz targets (run with `go test -fuzz=FuzzX`; the seed corpus
// alone runs under plain `go test`, acting as additional regression
// input). Every parser must reject or accept without panicking, and
// accepted inputs must survive a render→parse round trip.

import (
	"strings"
	"testing"

	"disjunct"
)

func FuzzParseDB(f *testing.F) {
	for _, seed := range []string{
		"a | b.",
		"c :- a, b.",
		"d :- c, not e.",
		":- a, d.",
		"a|b.c:-a.",
		"% comment\na.",
		"a :- not not b.",
		"π :- ünïcode.",
		strings.Repeat("a | ", 100) + "b.",
		":-A&not A&not.", // "not" is reserved: refused, not rendered as ":- A, not, not A."
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := disjunct.Parse(input)
		if err != nil {
			return
		}
		// Round trip: the rendering must re-parse.
		d2, err := disjunct.Parse(d.String())
		if err != nil {
			t.Fatalf("render of %q does not re-parse: %v", input, err)
		}
		if len(d2.Clauses) != len(d.Clauses) {
			t.Fatalf("round trip changed clause count for %q", input)
		}
	})
}

func FuzzParseFormula(f *testing.F) {
	for _, seed := range []string{
		"a & b | -c",
		"(a -> b) <-> -c",
		"edge(a,b) & -path(b,c)",
		"true | false",
		"----a",
		"a & (b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		voc := disjunct.NewDB().Voc
		g, err := disjunct.ParseFormula(input, voc)
		if err != nil {
			return
		}
		if _, err := disjunct.ParseFormula(g.String(voc), voc); err != nil {
			t.Fatalf("render of %q does not re-parse: %v", input, err)
		}
	})
}

func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		"edge(a,b). path(X,Y) :- edge(X,Y).",
		"p(X) | q(X) :- r(X). r(a).",
		"w :- not w.",
		"p(X) :- q(X, X).",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 2000 {
			return // keep grounding cost bounded
		}
		d, err := disjunct.ParseProgram(input)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("grounding of %q produced invalid DB: %v", input, err)
		}
	})
}
