package logic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("a")
	b := v.Intern("b")
	if a == b || v.Size() != 2 {
		t.Fatalf("intern broken")
	}
	if got := v.Intern("a"); got != a {
		t.Fatalf("re-intern must return same atom")
	}
	if _, ok := v.Lookup("zzz"); ok {
		t.Fatalf("lookup of unknown must fail")
	}
	if v.Name(a) != "a" {
		t.Fatalf("name wrong")
	}
	f := v.FreshNamed("a")
	if v.Name(f) == "a" {
		t.Fatalf("FreshNamed must avoid collisions")
	}
	c := v.Clone()
	c.Intern("new")
	if v.Size() == c.Size() {
		t.Fatalf("clone must be independent")
	}
}

// freshNamedScan is FreshNamed's specification: rescan prefix,
// prefix_0, prefix_1, … from the start on every call.
func freshNamedScan(v *Vocabulary, prefix string) Atom {
	name := prefix
	for i := 0; ; i++ {
		if _, ok := v.Lookup(name); !ok {
			return v.Intern(name)
		}
		name = fmt.Sprintf("%s_%d", prefix, i)
	}
}

// TestFreshNamedMatchesScan interleaves FreshNamed with interning of
// user atoms named like its candidates (_t, _t_3, …) and with Clone,
// and checks every returned name and atom id against the rescanning
// specification.
func TestFreshNamedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefixes := []string{"_t", "_card", "x"}
	for run := 0; run < 200; run++ {
		got, want := NewVocabulary(), NewVocabulary()
		for step := 0; step < 60; step++ {
			p := prefixes[rng.Intn(len(prefixes))]
			switch rng.Intn(5) {
			case 0:
				name := p
				if rng.Intn(3) > 0 {
					name = fmt.Sprintf("%s_%d", p, rng.Intn(12))
				}
				got.Intern(name)
				want.Intern(name)
			case 1:
				got = got.Clone()
			default:
				g, w := got.FreshNamed(p), freshNamedScan(want, p)
				if g != w || got.Name(g) != want.Name(w) {
					t.Fatalf("run %d step %d: FreshNamed(%q) = %d %q, scan gives %d %q",
						run, step, p, g, got.Name(g), w, want.Name(w))
				}
			}
		}
		if !reflect.DeepEqual(got.Names(), want.Names()) {
			t.Fatalf("run %d: vocabularies diverged:\n%v\n%v", run, got.Names(), want.Names())
		}
	}
}

func TestLitOps(t *testing.T) {
	a := Atom(3)
	p, n := PosLit(a), NegLit(a)
	if p.Atom() != a || n.Atom() != a {
		t.Fatalf("atom extraction wrong")
	}
	if !p.IsPos() || n.IsPos() {
		t.Fatalf("sign wrong")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatalf("negation wrong")
	}
	if MkLit(a, true) != p || MkLit(a, false) != n {
		t.Fatalf("MkLit wrong")
	}
}

func TestInterp(t *testing.T) {
	m := InterpOf(4, 0, 2)
	if !m.Holds(0) || m.Holds(1) || !m.Holds(2) {
		t.Fatalf("holds wrong")
	}
	if !m.Sat(PosLit(0)) || !m.Sat(NegLit(1)) || m.Sat(NegLit(0)) {
		t.Fatalf("sat wrong")
	}
	o := m.Clone()
	o.True.Set(1)
	if m.Holds(1) {
		t.Fatalf("clone aliases")
	}
	if !InterpOf(3, 0).ProperSubsetOf(InterpOf(3, 0, 1)) {
		t.Fatalf("subset wrong")
	}
}

func TestInterpString(t *testing.T) {
	v := NewVocabulary()
	v.Intern("b")
	v.Intern("a")
	m := InterpOf(2, 0, 1)
	if got := m.String(v); got != "{a, b}" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseAndEval(t *testing.T) {
	v := NewVocabulary()
	f := MustParseFormula("(a -> b) & (-b | c) & -(d <-> e)", v)
	cases := []struct {
		atoms []Atom
		want  bool
	}{
		{[]Atom{}, false},                  // d<->e both false → ¬(...)=false
		{atomsOf(v, "d"), true},            // a→b ✓ (¬a), ¬b ✓, d≠e ✓
		{atomsOf(v, "a", "d"), false},      // a→b fails
		{atomsOf(v, "a", "b", "d"), false}, // ¬b∨c fails
		{atomsOf(v, "a", "b", "c", "e"), true},
	}
	for i, c := range cases {
		m := InterpOf(v.Size(), c.atoms...)
		if got := f.Eval(m); got != c.want {
			t.Fatalf("case %d: eval = %v, want %v", i, got, c.want)
		}
	}
}

func atomsOf(v *Vocabulary, names ...string) []Atom {
	out := make([]Atom, len(names))
	for i, n := range names {
		a, ok := v.Lookup(n)
		if !ok {
			panic("unknown atom " + n)
		}
		out[i] = a
	}
	return out
}

func TestParseErrors(t *testing.T) {
	v := NewVocabulary()
	for _, bad := range []string{"", "(a", "a &", "a b", "->a", "a ->", "()"} {
		if _, err := ParseFormula(bad, v); err == nil {
			t.Fatalf("%q should fail to parse", bad)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	v := NewVocabulary()
	// -a & b | c -> d  ≡  (((-a & b) | c) -> d)
	f := MustParseFormula("-a & b | c -> d", v)
	if f.Op != OpImpl {
		t.Fatalf("top op should be ->, got %d", f.Op)
	}
	if f.Args[0].Op != OpOr {
		t.Fatalf("lhs should be |")
	}
}

func TestParseImplRightAssoc(t *testing.T) {
	v := NewVocabulary()
	f := MustParseFormula("a -> b -> c", v)
	if f.Op != OpImpl || f.Args[1].Op != OpImpl {
		t.Fatalf("-> must be right associative")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	v := NewVocabulary()
	for i := 0; i < 6; i++ {
		v.Intern(string(rune('a' + i)))
	}
	for iter := 0; iter < 300; iter++ {
		f := randomFormula(rng, 6, 4)
		s := f.String(v)
		g, err := ParseFormula(s, v)
		if err != nil {
			t.Fatalf("iter %d: rendered %q does not parse: %v", iter, s, err)
		}
		// Semantic round trip: equal truth tables.
		for bits := 0; bits < 1<<6; bits++ {
			m := NewInterp(v.Size())
			for j := 0; j < 6; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			if f.Eval(m) != g.Eval(m) {
				t.Fatalf("iter %d: round trip changed semantics of %q", iter, s)
			}
		}
	}
}

func randomFormula(rng *rand.Rand, n, depth int) *Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		return AtomF(Atom(rng.Intn(n)))
	}
	l := randomFormula(rng, n, depth-1)
	r := randomFormula(rng, n, depth-1)
	switch rng.Intn(5) {
	case 0:
		return And(l, r)
	case 1:
		return Or(l, r)
	case 2:
		return Implies(l, r)
	case 3:
		return Equiv(l, r)
	default:
		return Not(l)
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for iter := 0; iter < 300; iter++ {
		f := randomFormula(rng, 5, 4)
		g := NNF(f)
		assertOnlyNNFOps(t, g)
		for bits := 0; bits < 1<<5; bits++ {
			m := NewInterp(5)
			for j := 0; j < 5; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			if f.Eval(m) != g.Eval(m) {
				t.Fatalf("iter %d: NNF changed semantics", iter)
			}
		}
	}
}

func assertOnlyNNFOps(t *testing.T, f *Formula) {
	t.Helper()
	switch f.Op {
	case OpAtom, OpTrue, OpFalse:
	case OpNot:
		if f.Args[0].Op != OpAtom {
			t.Fatalf("NNF has negation above non-atom")
		}
	case OpAnd, OpOr:
		for _, g := range f.Args {
			assertOnlyNNFOps(t, g)
		}
	default:
		t.Fatalf("NNF contains op %d", f.Op)
	}
}

func TestToCNFDirectEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	for iter := 0; iter < 300; iter++ {
		f := randomFormula(rng, 5, 3)
		cnf := ToCNFDirect(f)
		for bits := 0; bits < 1<<5; bits++ {
			m := NewInterp(5)
			for j := 0; j < 5; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			if f.Eval(m) != EvalCNF(cnf, m) {
				t.Fatalf("iter %d: direct CNF not equivalent", iter)
			}
		}
	}
}

func TestTseitinEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	for iter := 0; iter < 300; iter++ {
		f := randomFormula(rng, 4, 3)
		v := NewVocabulary()
		for i := 0; i < 4; i++ {
			v.Intern(string(rune('a' + i)))
		}
		cnf := Tseitin(f, v)
		n := v.Size()
		// Brute-force satisfiability of both.
		fSat := false
		for bits := 0; bits < 1<<4; bits++ {
			m := NewInterp(4)
			for j := 0; j < 4; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			if f.Eval(m) {
				fSat = true
				break
			}
		}
		cnfSat := false
		if n <= 22 {
			for bits := 0; bits < 1<<uint(n); bits++ {
				m := NewInterp(n)
				for j := 0; j < n; j++ {
					m.True.SetTo(j, bits&(1<<uint(j)) != 0)
				}
				if EvalCNF(cnf, m) {
					cnfSat = true
					// Projection property: the original formula holds
					// under the model restricted to its atoms.
					if !f.Eval(m) {
						t.Fatalf("iter %d: Tseitin model does not satisfy formula", iter)
					}
					break
				}
			}
		} else {
			continue
		}
		if fSat != cnfSat {
			t.Fatalf("iter %d: equisatisfiability broken (f=%v cnf=%v)", iter, fSat, cnfSat)
		}
	}
}

func TestEval3KleeneTables(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("a")
	b := v.Intern("b")
	p := NewPartial(2)
	p.SetValue(a, Undefined)
	p.SetValue(b, True)
	if got := AtomF(a).Eval3(p); got != Undefined {
		t.Fatalf("atom eval3 = %v", got)
	}
	if got := Not(AtomF(a)).Eval3(p); got != Undefined {
		t.Fatalf("¬undef = %v", got)
	}
	if got := And(AtomF(a), AtomF(b)).Eval3(p); got != Undefined {
		t.Fatalf("undef ∧ true = %v", got)
	}
	if got := Or(AtomF(a), AtomF(b)).Eval3(p); got != True {
		t.Fatalf("undef ∨ true = %v", got)
	}
	if got := Implies(AtomF(a), AtomF(b)).Eval3(p); got != True {
		t.Fatalf("undef → true = %v", got)
	}
	if got := Equiv(AtomF(a), AtomF(b)).Eval3(p); got != Undefined {
		t.Fatalf("undef ↔ true = %v", got)
	}
	p.SetValue(b, False)
	if got := And(AtomF(a), AtomF(b)).Eval3(p); got != False {
		t.Fatalf("undef ∧ false = %v", got)
	}
}

func TestEval3AgreesWithEvalOnTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(155))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(rng, 4, 3)
		bits := rng.Intn(16)
		m := NewInterp(4)
		p := NewPartial(4)
		for j := 0; j < 4; j++ {
			val := bits&(1<<uint(j)) != 0
			m.True.SetTo(j, val)
			if val {
				p.SetValue(Atom(j), True)
			}
		}
		want := False
		if f.Eval(m) {
			want = True
		}
		if got := f.Eval3(p); got != want {
			t.Fatalf("iter %d: Eval3 on total interp = %v, Eval = %v", iter, got, want)
		}
	}
}

func TestPartialOrdering(t *testing.T) {
	p := NewPartial(2)
	q := NewPartial(2)
	q.SetValue(0, Undefined)
	if !p.TruthLeq(q) || q.TruthLeq(p) {
		t.Fatalf("F < U ordering broken")
	}
	q.SetValue(0, True)
	if !p.TruthLeq(q) {
		t.Fatalf("F < T ordering broken")
	}
	p.SetValue(1, True)
	if p.TruthLeq(q) {
		t.Fatalf("incomparable assignments compared")
	}
}

func TestPartialTotal(t *testing.T) {
	p := NewPartial(2)
	p.SetValue(0, True)
	if !p.IsTotal() {
		t.Fatalf("no undefined atoms → total")
	}
	m := p.Total()
	if !m.Holds(0) || m.Holds(1) {
		t.Fatalf("Total conversion wrong")
	}
	p.SetValue(1, Undefined)
	defer func() {
		if recover() == nil {
			t.Fatalf("Total on partial must panic")
		}
	}()
	p.Total()
}

func TestCardinalityAtLeastK(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for k := 0; k <= n+1; k++ {
			v := NewVocabulary()
			lits := make([]Lit, n)
			for i := 0; i < n; i++ {
				lits[i] = PosLit(v.Intern(string(rune('a' + i))))
			}
			cnf := AtLeastK(lits, k, v)
			total := v.Size()
			if total > 20 {
				t.Skip("encoding too large for brute force")
			}
			for bits := 0; bits < 1<<uint(n); bits++ {
				count := 0
				for i := 0; i < n; i++ {
					if bits&(1<<uint(i)) != 0 {
						count++
					}
				}
				want := count >= k
				// Check satisfiability of cnf with first n vars fixed.
				got := extensionExists(cnf, n, total, bits)
				if got != want {
					t.Fatalf("n=%d k=%d bits=%b: got %v want %v", n, k, bits, got, want)
				}
			}
		}
	}
}

// extensionExists brute-forces whether the aux vars can be set to
// satisfy the CNF given the first n vars.
func extensionExists(cnf CNF, n, total, bits int) bool {
	aux := total - n
	for abits := 0; abits < 1<<uint(aux); abits++ {
		m := NewInterp(total)
		for i := 0; i < n; i++ {
			m.True.SetTo(i, bits&(1<<uint(i)) != 0)
		}
		for i := 0; i < aux; i++ {
			m.True.SetTo(n+i, abits&(1<<uint(i)) != 0)
		}
		if EvalCNF(cnf, m) {
			return true
		}
	}
	return false
}

func TestFormulaHelpers(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("a")
	if And().Op != OpTrue || Or().Op != OpFalse {
		t.Fatalf("empty connectives wrong")
	}
	if f := Not(Not(AtomF(a))); f.Op != OpAtom || f.A != a {
		t.Fatalf("double negation not folded")
	}
	if And(TrueF(), AtomF(a)).Op != OpAtom {
		t.Fatalf("⊤ not folded in ∧")
	}
	if Or(TrueF(), AtomF(a)).Op != OpTrue {
		t.Fatalf("⊤ not folded in ∨")
	}
	atoms := MustParseFormula("a & (b | -c)", v).Atoms(nil)
	if len(atoms) != 3 {
		t.Fatalf("Atoms found %d", len(atoms))
	}
	if MustParseFormula("a & b", v).Size() != 3 {
		t.Fatalf("Size wrong")
	}
}

// Property: ToCNFDirect and Tseitin agree on satisfiability.
func TestQuickCNFAgreement(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFormula(rng, 4, 3)
		direct := ToCNFDirect(f)
		directSat := false
		for bits := 0; bits < 16 && !directSat; bits++ {
			m := NewInterp(4)
			for j := 0; j < 4; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			directSat = EvalCNF(direct, m)
		}
		v := NewVocabulary()
		for i := 0; i < 4; i++ {
			v.Intern(string(rune('a' + i)))
		}
		ts := Tseitin(f, v)
		n := v.Size()
		tsSat := false
		for bits := 0; bits < 1<<uint(n) && !tsSat; bits++ {
			m := NewInterp(n)
			for j := 0; j < n; j++ {
				m.True.SetTo(j, bits&(1<<uint(j)) != 0)
			}
			tsSat = EvalCNF(ts, m)
		}
		return directSat == tsSat
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
