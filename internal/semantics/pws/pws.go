// Package pws implements Chan's Possible Worlds Semantics (§3.2),
// equivalent to Sakama's Possible Models Semantics (PMS).
//
// A split program of DB chooses, for every non-integrity clause, a
// nonempty subset of its head atoms, yielding a definite program
// (heads of size one after splitting: each chosen atom gets the
// clause's body). A possible model of DB is the least model of some
// split program; integrity clauses filter the candidates. PWS
// inference is truth in every possible model.
//
// Complexity shape: negative-literal inference on positive DDBs
// without integrity clauses is polynomial (Chan; zero oracle calls:
// x is false in all possible models iff x is outside the all-heads
// least fixpoint); with integrity clauses literal inference is
// coNP-complete and formula inference coNP-complete in both regimes.
//
// Each coNP cell is one NP call, the membership witness of the paper's
// upper bound: a countermodel is a possible model falsifying the
// query, and "M is a possible model" has the polynomial verifier
// CheckModel, which possibleCNF writes as clauses. Models is that
// encoding under SAT with one blocking clause per model found.
package pws

import (
	"math/bits"
	"slices"

	"disjunct/internal/bitset"
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/fixpoint"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("PWS", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Register("PMS", func(opts core.Options) core.Semantics {
		s := New(opts)
		s.name = "PMS"
		return s
	})
	pwsCell := "negative literal in P (no IC) / coNP with IC; formula coNP-complete; existence NP"
	pwsCells := core.Cells{Literal: core.CellCoNP, Formula: core.CellCoNP, Existence: core.CellNP}
	core.Describe(core.Info{Name: "PWS", Complexity: pwsCell, Cells: pwsCells, NoNegation: true})
	core.Describe(core.Info{Name: "PMS", Complexity: pwsCell, Cells: pwsCells, NoNegation: true})
}

// Sem is the PWS ≡ PMS semantics.
type Sem struct {
	opts core.Options
	name string
}

// New returns a PWS instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts, name: "PWS"}
}

// Name returns "PWS" (or "PMS").
func (s *Sem) Name() string { return s.name }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

func (s *Sem) check(d *db.DB) error {
	if d.HasNegation() {
		return core.ErrUnsupported
	}
	return nil
}

// InferLiteral decides PWS(DB) ⊨ l. Fast path (Chan's Table 1 cell):
// on a positive DDB without integrity clauses, ¬x is inferred iff x is
// outside the all-heads least fixpoint — polynomial, zero oracle calls
// (the fixpoint is the least model of the maximal split program, which
// is itself a possible model containing every possibly-true atom).
// Every other literal is one NP call: is there a possible model with
// the complement of l?
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	if !l.IsPos() && !d.HasIntegrityClauses() {
		return !fixpoint.PossiblyTrue(d).Test(int(l.Atom())), nil
	}
	nVars, cnf := possibleCNF(d, d.N(), s.opts.Oracle.Budget())
	counter, _ := s.opts.Oracle.Sat(nVars, append(cnf, logic.Clause{l.Neg()}))
	return !counter, nil
}

// PossiblyTrueAtoms returns the atoms true in at least one possible
// model (ignoring integrity clauses) — the polynomial closure.
func (s *Sem) PossiblyTrueAtoms(d *db.DB) *bitset.Set {
	return fixpoint.PossiblyTrue(d)
}

// InferFormula decides PWS(DB) ⊨ f: truth in every possible model, by
// one NP call for a possible model of ¬f (coNP).
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	w := d.Voc.Clone()
	neg := logic.TseitinNeg(f, w)
	nVars, cnf := possibleCNF(d, w.Size(), s.opts.Oracle.Budget())
	counter, _ := s.opts.Oracle.Sat(nVars, append(cnf, neg...))
	return !counter, nil
}

// HasModel decides PWS(DB) ≠ ∅: some split program's least model
// satisfies the integrity clauses. Without integrity clauses this is
// constantly true; with them it is one NP call.
func (s *Sem) HasModel(d *db.DB) (ok bool, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.HasIntegrityClauses() {
		return true, nil
	}
	ok, _ = s.opts.Oracle.Sat(possibleCNF(d, d.N(), s.opts.Oracle.Budget()))
	return ok, nil
}

// Models enumerates the possible models (the paper's PWS model set):
// one NP call per model on the loaded encoding, each model then
// blocked on the database's atoms, plus the final UNSAT call unless
// limit or yield stops first.
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return 0, err
	}
	n := d.N()
	p := s.opts.Oracle.Prefix(possibleCNF(d, n, s.opts.Oracle.Budget()))
	defer p.Release()
	block := make(logic.Clause, n) // Add copies it into the solver
	for limit <= 0 || count < limit {
		found, full := p.Sat(nil)
		if !found {
			break
		}
		m := logic.NewInterp(n)
		for v := 0; v < n; v++ {
			a := logic.Atom(v)
			m.True.SetTo(v, full.Holds(a))
			block[v] = logic.MkLit(a, !full.Holds(a))
		}
		count++
		if !yield(m) {
			break
		}
		p.Add(block)
	}
	return count, nil
}

// possibleCNF encodes "M is a possible model of d" (CheckModel's
// characterization) over d's atoms plus auxiliary variables numbered
// from base ≥ d.N(); it returns the variable count and the clauses.
// The clauses are M ⊨ DB (integrity clauses included) and
// well-supportedness: every atom of M is derived by the least fixpoint
// of the "all heads within M" operator.
//
// Well-supportedness is completion plus level ranking (Janhunen) inside
// the strongly connected components of the positive dependency graph
// (head atom → body atom). Each atom a of M needs a supporting rule r,
// a ∈ H(r), whose body holds: a → ⋁ s_r, s_r → b for b ∈ B⁺(r). An atom
// of a component C with |C| > 1 also carries a rank of ⌈log₂|C|⌉ bits,
// and r supports it only if the body atoms inside C rank lower: exactly
// one lower when there is one of them, so unit propagation computes
// ranks along a chain instead of the solver searching for them. A rule
// with a in its own body never supports a. The longest chain of
// supporting rules below each atom of a possible model gives such
// ranks, and ranks order a derivation, so the encoding is exact; it has
// O(|DB|·log n) clauses, and on an acyclic graph it is plain
// completion. A one-atom body stands for its own s_r, and an
// empty-body rule makes its head atoms' support clauses vacuous. The
// encoding polls b every 1024 atoms and trips it once exhausted.
func possibleCNF(d *db.DB, base int, b *budget.B) (int, logic.CNF) {
	n := d.N()
	heads := headIndex(d)
	comp, size := components(d.Clauses, heads)

	// Added clauses are cut from literal chunks of doubling size, so
	// the encoding costs a few allocations, not one per clause, and a
	// full chunk is left to its clauses rather than copied.
	cnf := slices.Grow(d.ToCNF(), len(d.Clauses)+2*n)
	var lits []logic.Lit
	clause := func(ls ...logic.Lit) {
		if cap(lits)-len(lits) < len(ls) {
			lits = make([]logic.Lit, 0, max(64, 2*cap(lits), len(ls)))
		}
		lits = append(lits, ls...)
		cnf = append(cnf, lits[len(lits)-len(ls):len(lits):len(lits)])
	}
	next := base
	fresh := func() logic.Lit {
		next++
		return logic.PosLit(logic.Atom(next - 1))
	}

	// rank[a] is the first of a's width(a) rank bits, least significant
	// first.
	width := func(a int) int {
		if size[comp[a]] == 1 {
			return 0
		}
		return bits.Len(uint(size[comp[a]] - 1))
	}
	ranks, rank := next, make([]int, n)
	for a := range rank {
		rank[a] = next
		next += width(a)
	}
	bit := func(a, i int) logic.Lit { return logic.PosLit(logic.Atom(rank[a] + i)) }
	// less adds g → rank(x) < rank(y), x and y in one component: at
	// each bit from the top, x's bit is at most y's, and equal bits
	// pass the strict comparison on to the bits below.
	less := func(g logic.Lit, x, y int) {
		for i := width(y) - 1; i > 0; i-- {
			below := fresh()
			clause(g.Neg(), bit(x, i).Neg(), bit(y, i))
			clause(g.Neg(), bit(x, i).Neg(), below)
			clause(g.Neg(), bit(y, i), below)
			g = below
		}
		clause(g.Neg(), bit(x, 0).Neg())
		clause(g.Neg(), bit(y, 0))
	}
	// ones[rank[a]-ranks+i] holds iff a's rank bits 0..i are all ones;
	// onesOf makes a's on first use (0, an original atom, marks unmade).
	ones := make([]logic.Lit, next-ranks)
	onesOf := func(a int) []logic.Lit {
		o := ones[rank[a]-ranks : rank[a]-ranks+width(a)]
		if o[0] == 0 {
			o[0] = bit(a, 0)
			for i := 1; i < len(o); i++ {
				o[i] = fresh()
				clause(o[i].Neg(), o[i-1])
				clause(o[i].Neg(), bit(a, i))
				clause(o[i], o[i-1].Neg(), bit(a, i).Neg())
			}
		}
		return o
	}
	// succ adds g → rank(y) = rank(x) + 1, x and y in one component:
	// x's bits are not all ones, and each bit of y is x's, flipped when
	// x's bits below it are all ones (always for bit 0).
	succ := func(g logic.Lit, x, y int) {
		o := onesOf(x)
		clause(g.Neg(), o[len(o)-1].Neg())
		clause(g.Neg(), bit(x, 0), bit(y, 0))
		clause(g.Neg(), bit(x, 0).Neg(), bit(y, 0).Neg())
		for i := 1; i < len(o); i++ {
			xi, yi, c := bit(x, i), bit(y, i), o[i-1]
			clause(g.Neg(), xi.Neg(), c.Neg(), yi.Neg())
			clause(g.Neg(), xi, c, yi.Neg())
			clause(g.Neg(), xi, c.Neg(), yi)
			clause(g.Neg(), xi.Neg(), c, yi)
		}
	}

	// body(r) returns a literal implying B⁺(r), made on first use;
	// always marks an empty body.
	const always, unset logic.Lit = -1, -2
	bodies := make([]logic.Lit, len(d.Clauses))
	for r := range bodies {
		bodies[r] = unset
	}
	body := func(r int) logic.Lit {
		if bodies[r] != unset {
			return bodies[r]
		}
		switch atoms := d.Clauses[r].PosBody; len(atoms) {
		case 0:
			bodies[r] = always
		case 1:
			bodies[r] = logic.PosLit(atoms[0])
		default:
			s := fresh()
			for _, x := range atoms {
				clause(s.Neg(), logic.PosLit(x))
			}
			bodies[r] = s
		}
		return bodies[r]
	}

	var support []logic.Lit // ¬a ∨ ⋁ s_r over the rules r that can support a
	var same []int
	for a := range heads {
		if a%1024 == 1023 {
			if err := b.Err(); err != nil {
				budget.Trip(err)
			}
		}
		support = append(support[:0], logic.NegLit(logic.Atom(a)))
		vacuous := false
	rules:
		for _, r := range heads[a] {
			same = same[:0] // B⁺(r) inside a's component
			for _, x := range d.Clauses[r].PosBody {
				if int(x) == a {
					continue rules // a ← …, a, … never derives a
				}
				if comp[x] == comp[a] {
					same = append(same, int(x))
				}
			}
			s := body(r)
			if s == always {
				vacuous = true
				break
			}
			if len(same) > 0 {
				t := fresh()
				clause(t.Neg(), s)
				if len(same) == 1 {
					succ(t, same[0], a)
				} else {
					for _, x := range same {
						less(t, x, a)
					}
				}
				s = t
			}
			support = append(support, s)
		}
		if !vacuous {
			clause(support...)
		}
	}
	return next, cnf
}

// headIndex lists, for each atom a, the indices of d's clauses with a
// in their head.
func headIndex(d *db.DB) [][]int {
	heads := make([][]int, d.N())
	for r, c := range d.Clauses {
		for _, h := range c.Head {
			heads[h] = append(heads[h], r)
		}
	}
	return heads
}

// components numbers the strongly connected components of the positive
// dependency graph of clauses (head atom → body atom) by Tarjan's
// algorithm: comp[a] is a's component and size[comp[a]] its atom
// count; heads[a] lists the clauses with a in their head.
func components(clauses []db.Clause, heads [][]int) (comp, size []int) {
	n := len(heads)
	index := make([]int, n) // discovery order from 1; 0 = unvisited
	low := make([]int, n)
	comp = make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	order := 0
	var visit func(a int)
	visit = func(a int) {
		order++
		index[a], low[a] = order, order
		stack = append(stack, a)
		onStack[a] = true
		for _, r := range heads[a] {
			for _, b := range clauses[r].PosBody {
				switch {
				case index[b] == 0:
					visit(int(b))
					low[a] = min(low[a], low[b])
				case onStack[b]:
					low[a] = min(low[a], index[b])
				}
			}
		}
		if low[a] < index[a] {
			return
		}
		c := len(size)
		size = append(size, 0)
		for {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[b] = false
			comp[b] = c
			size[c]++
			if b == a {
				return
			}
		}
	}
	for a := range heads {
		if index[a] == 0 {
			visit(a)
		}
	}
	return comp, size
}

// CheckModel reports whether m is a possible model of d satisfying its
// integrity clauses — in polynomial time, without enumerating split
// programs:
//
//	m is the least model of some split program iff
//	(i)  every applicable rule (positive body ⊆ m) has a head atom
//	     in m (some nonempty choice within m exists), and
//	(ii) the least fixpoint of the "all heads within m" operator
//	     reaches every atom of m (each atom has a derivation whose
//	     choices stay inside m).
//
// Soundness: taking Sᵣ = head(r) ∩ m for every applicable rule gives a
// split program whose least model is exactly the fixpoint of (ii).
// Completeness: any split with least model m can only choose head
// atoms inside m on applicable rules, so its derivations are contained
// in the fixpoint of (ii).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	n := d.N()
	// Integrity clauses and rule applicability.
	for _, c := range d.Clauses {
		applicable := true
		for _, b := range c.PosBody {
			if !m.Holds(b) {
				applicable = false
				break
			}
		}
		if !applicable {
			continue
		}
		if c.IsIntegrity() {
			return false, nil
		}
		inM := false
		for _, h := range c.Head {
			if m.Holds(h) {
				inM = true
				break
			}
		}
		if !inM {
			return false, nil
		}
	}
	// Least fixpoint with all head choices restricted to m.
	derived := logic.NewInterp(n)
	for changed := true; changed; {
		changed = false
		for _, c := range d.Clauses {
			if c.IsIntegrity() {
				continue
			}
			fire := true
			for _, b := range c.PosBody {
				if !derived.Holds(b) {
					fire = false
					break
				}
			}
			if !fire {
				continue
			}
			for _, h := range c.Head {
				if m.Holds(h) && !derived.Holds(h) {
					derived.True.Set(int(h))
					changed = true
				}
			}
		}
	}
	return derived.Equal(m), nil
}
