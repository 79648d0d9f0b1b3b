package fixpoint

import (
	"fmt"
	"math/rand"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
)

func TestLeastModel(t *testing.T) {
	d := dbtest.MustParse("a. b :- a. c :- b, a. e :- f.")
	m := LeastModel(d)
	for _, name := range []string{"a", "b", "c"} {
		at, _ := d.Voc.Lookup(name)
		if !m.Holds(at) {
			t.Fatalf("%s must be in the least model", name)
		}
	}
	for _, name := range []string{"e", "f"} {
		at, _ := d.Voc.Lookup(name)
		if m.Holds(at) {
			t.Fatalf("%s must not be in the least model", name)
		}
	}
}

func TestLeastModelPanicsOnDisjunction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic on non-definite program")
		}
	}()
	LeastModel(dbtest.MustParse("a | b."))
}

// TestLeastModelBackwardChain: on a_i ← a_{i+1}, a_{i+1} (listed from
// the top, with a repeated body atom) and the fact a_{n−1}, every atom
// is derived however the clauses are ordered; a ← a, e ← a_0, f stays
// underived.
func TestLeastModelBackwardChain(t *testing.T) {
	const n = 500
	d := db.New()
	for a := 0; a <= n; a++ {
		d.Voc.Intern(fmt.Sprintf("a%d", a))
	}
	for a := 0; a < n; a++ {
		d.AddRule([]logic.Atom{logic.Atom(a)}, []logic.Atom{logic.Atom(a + 1), logic.Atom(a + 1)}, nil)
	}
	d.AddFact(logic.Atom(n))
	e, f := d.Voc.Intern("e"), d.Voc.Intern("f")
	d.AddRule([]logic.Atom{f}, []logic.Atom{f}, nil)
	d.AddRule([]logic.Atom{e}, []logic.Atom{0, f}, nil)
	m := LeastModel(d)
	for a := 0; a <= n; a++ {
		if !m.Holds(logic.Atom(a)) {
			t.Fatalf("atom %d of the chain not derived", a)
		}
	}
	if m.Holds(e) || m.Holds(f) {
		t.Fatalf("e or f derived without support")
	}
	if !PossiblyTrue(d).Equal(m.True) {
		t.Fatalf("PossiblyTrue differs from LeastModel on a definite program")
	}
}

func TestPossiblyTrueBasic(t *testing.T) {
	d := dbtest.MustParse("a | b. c :- a, b. e :- f.")
	pt := PossiblyTrue(d)
	for _, name := range []string{"a", "b", "c"} {
		at, _ := d.Voc.Lookup(name)
		if !pt.Test(int(at)) {
			t.Fatalf("%s should be possibly true", name)
		}
	}
	for _, name := range []string{"e", "f"} {
		at, _ := d.Voc.Lookup(name)
		if pt.Test(int(at)) {
			t.Fatalf("%s should not be possibly true", name)
		}
	}
}

func TestPossiblyTrueEqualsUnreducedClosureAtoms(t *testing.T) {
	// The polynomial fixpoint must agree with the brute-force
	// unreduced hyperresolution closure on occurrence.
	rng := rand.New(rand.NewSource(141))
	for iter := 0; iter < 200; iter++ {
		d := gen.Random(rng, gen.Positive(2+rng.Intn(4), 1+rng.Intn(6)))
		want := refsem.DDROccurring(d)
		got := PossiblyTrue(d)
		for v := 0; v < d.N(); v++ {
			if want[v] != got.Test(v) {
				t.Fatalf("iter %d: atom %s occurrence mismatch (fixpoint=%v brute=%v)\nDB:\n%s",
					iter, d.Voc.Name(logic.Atom(v)), got.Test(v), want[v], d.String())
			}
		}
	}
}

func TestTUpOmegaExample31(t *testing.T) {
	// {a∨b, c←a∧b}: derivations give c∨a∨b, but a∨b subsumes it, so
	// the REDUCED state is just {a∨b} — c does not occur there,
	// whereas it does occur in the unreduced closure (Example 3.1).
	d := dbtest.MustParse("a | b. c :- a, b.")
	st := TUpOmega(d, 0)
	c, _ := d.Voc.Lookup("c")
	if st.Atoms(d.N()).Test(int(c)) {
		t.Fatalf("c must not occur in the subsumption-reduced state")
	}
	if !PossiblyTrue(d).Test(int(c)) {
		t.Fatalf("c must occur in the unreduced closure")
	}
}

func TestTUpOmegaIsMinimalState(t *testing.T) {
	// The reduced closure equals the set of minimal positive clauses
	// entailed by the DB (Minker): cross-check by brute force.
	rng := rand.New(rand.NewSource(142))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(3)
		d := gen.Random(rng, gen.Positive(n, 1+rng.Intn(5)))
		st := TUpOmega(d, 0)
		want := bruteMinimalEntailedDisjunctions(d)
		got := map[string]bool{}
		for _, dis := range st.Disjunctions() {
			got[keyOf(dis, n)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: reduced state size %d, want %d\nDB:\n%s", iter, len(got), len(want), d.String())
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("iter %d: missing minimal entailed disjunction\nDB:\n%s", iter, d.String())
			}
		}
	}
}

func keyOf(d Disjunction, n int) string {
	b := make([]byte, n)
	for _, a := range d {
		b[a] = 1
	}
	return string(b)
}

// bruteMinimalEntailedDisjunctions enumerates all nonempty positive
// clauses entailed by d and keeps the subset-minimal ones.
func bruteMinimalEntailedDisjunctions(d *db.DB) map[string]bool {
	n := d.N()
	ms := refsem.Models(d)
	var entailed [][]byte
	for mask := 1; mask < 1<<uint(n); mask++ {
		holds := true
		for _, m := range ms {
			sat := false
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 && m.Holds(logic.Atom(v)) {
					sat = true
					break
				}
			}
			if !sat {
				holds = false
				break
			}
		}
		if holds {
			b := make([]byte, n)
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					b[v] = 1
				}
			}
			entailed = append(entailed, b)
		}
	}
	out := map[string]bool{}
	for _, e := range entailed {
		minimal := true
		for _, f := range entailed {
			if subsetBytes(f, e) && !equalBytes(f, e) {
				minimal = false
				break
			}
		}
		if minimal {
			out[string(e)] = true
		}
	}
	return out
}

func subsetBytes(a, b []byte) bool {
	for i := range a {
		if a[i] == 1 && b[i] == 0 {
			return false
		}
	}
	return true
}

func equalBytes(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStateSubsumption(t *testing.T) {
	st := NewState()
	if !st.add(Disjunction{0, 1}) {
		t.Fatalf("first add must succeed")
	}
	if st.add(Disjunction{1, 0}) {
		t.Fatalf("duplicate (unordered) must be rejected")
	}
	if st.add(Disjunction{0, 1, 2}) {
		t.Fatalf("superset must be subsumed")
	}
	if !st.add(Disjunction{0}) {
		t.Fatalf("subset must be accepted")
	}
	if st.Len() != 1 {
		t.Fatalf("state should have collapsed to {0}: %d", st.Len())
	}
}
