package strat

import (
	"math/bits"
	"slices"

	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/logic"
)

// A Sink receives an encoding's clauses one at a time. The clause is
// reused once Clause returns, so a sink must copy what it keeps.
type Sink interface{ Clause(logic.Clause) }

// Support writes, clause by clause into out, a CNF over d's atoms plus
// auxiliary variables numbered from base ≥ d.N(). It returns the
// variable count and true, or (base, false) without writing anything
// when shifted is set and d is not head-cycle-free.
//
// The clauses are M ⊨ d (d.ToCNF(), integrity clauses included, first
// and in its order) and well-supportedness: every atom of M is derived
// by the least fixpoint of a definite program that the model picks.
//
//   - shifted unset: the program of "all heads within M", so the models
//     are the possible models of a positive d (PWS's split programs).
//   - shifted set: the reduct by M of d's shifted normal program, in
//     which a1∨…∨an ← B becomes aᵢ ← B ∧ ⋀_{j≠i} ¬aⱼ, reading negated
//     body atoms as head atoms. The models are the shifted program's
//     stable models; on a head-cycle-free d these are the minimal
//     models of d.ToCNF() (see DESIGN.md).
//
// Well-supportedness is completion plus level ranking (Janhunen) inside
// the strongly connected components of the positive dependency graph
// (head atom → body atom). Each atom a of M needs a supporting rule r,
// a ∈ H(r), whose body holds: a → ⋁ s_r, s_r → b for b ∈ B⁺(r), and,
// when shifted, s_r → ¬h for the other head atoms h of r. An atom of a
// component C with |C| > 1 also carries a rank of ⌈log₂|C|⌉ bits, and
// r supports it only if the body atoms inside C rank lower: exactly one
// lower when there is one of them, so unit propagation computes ranks
// along a chain instead of the solver searching for them. A rule with a
// in its own body never supports a. The longest chain of supporting
// rules below each atom of M gives such ranks, and ranks order a
// derivation, so the encoding is exact; it has O(|DB|·log n) clauses,
// and on an acyclic graph it is plain completion. A one-literal
// condition stands for its own s_r, and an empty one makes the support
// clause vacuous. The shifted encoding spends fewer variables: s_r
// implies r's body atoms directly, and an atom a that one rule alone
// can support stands for that rule's s_r, so a → ¬h is written once for
// two such atoms a and h of one rule. The encoding polls b every 1024
// atoms and trips it once exhausted.
//
// A warm call allocates nothing: the graph and the working arrays come
// from a pool.
func Support(d *db.DB, base int, shifted bool, b *budget.B, out Sink) (int, bool) {
	e := encoders.Get().(*encoder)
	defer func() {
		e.out = nil
		encoders.Put(e)
	}()
	e.g.build(d)
	if shifted {
		var ok bool
		if e.mark, ok = e.g.headCycleFree(d, e.mark); !ok {
			return base, false
		}
	}
	e.out = out
	for _, c := range d.Clauses {
		e.buf = e.buf[:0]
		for _, h := range c.Head {
			e.buf = append(e.buf, logic.PosLit(h))
		}
		for _, x := range c.PosBody {
			e.buf = append(e.buf, logic.NegLit(x))
		}
		for _, x := range c.NegBody {
			e.buf = append(e.buf, logic.PosLit(x))
		}
		out.Clause(e.buf)
	}

	n := d.N()
	e.next, e.ranks = base, base
	e.rank = resize(e.rank, n)
	for a := range e.rank {
		e.rank[a] = e.next
		e.next += e.width(a)
	}
	e.ones = resize(e.ones, e.next-e.ranks)
	e.sole = resize(e.sole, n)
	e.bodies = resize(e.bodies, len(d.Clauses))
	for r := range e.bodies {
		e.bodies[r] = unset
	}

	for a := 0; a < n; a++ {
		if a%1024 == 1023 {
			if err := b.Err(); err != nil {
				budget.Trip(err)
			}
		}
		// ¬a ∨ ⋁ s_r over the rules r that can support a. When shifted
		// and one rule alone can, a stands for its s_r, and a → s_r
		// needs neither a fresh variable nor this clause.
		e.support = append(e.support[:0], logic.NegLit(logic.Atom(a)))
		sole := shifted && e.soleRule(d, a)
		e.sole[a] = sole
		vacuous := false
	rules:
		for _, r := range e.g.headRules(a) {
			c := &d.Clauses[r]
			e.same = e.same[:0] // B⁺(r) inside a's component
			for _, x := range c.PosBody {
				if int(x) == a {
					continue rules // a ← …, a, … never derives a
				}
				if e.g.comp[x] == e.g.comp[a] {
					e.same = append(e.same, int(x))
				}
			}
			// cond: the literals s_r implies besides the ranking. PWS
			// shares one body literal among r's head atoms; the shifted
			// encoding lists the body atoms, since a sole-rule atom,
			// the common case, is its own s_r and needs no body literal.
			e.cond = e.cond[:0]
			if !shifted {
				if s := e.body(r, c); s != always {
					e.cond = append(e.cond, s)
				}
			} else {
				for _, x := range c.PosBody {
					e.cond = append(e.cond, logic.PosLit(x))
				}
				for _, part := range [2][]logic.Atom{c.Head, c.NegBody} {
					for _, h := range part {
						// A sole-rule h < a of r wrote ¬h ∨ ¬a already.
						dup := sole && int(h) < a && e.sole[h] && !slices.Contains(c.PosBody, h)
						if int(h) != a && !dup {
							e.cond = append(e.cond, logic.NegLit(h))
						}
					}
				}
			}
			if len(e.same) == 0 && len(e.cond) <= 1 {
				if len(e.cond) == 0 {
					vacuous = true
					break
				}
				e.support = append(e.support, e.cond[0])
				continue
			}
			t := logic.PosLit(logic.Atom(a))
			if !sole {
				t = e.fresh()
			}
			for _, l := range e.cond {
				e.clause(t.Neg(), l)
			}
			if len(e.same) == 1 {
				e.succ(t, e.same[0], a)
			} else {
				for _, x := range e.same {
					e.less(t, x, a)
				}
			}
			if sole {
				vacuous = true // a → s_r is written
				break
			}
			e.support = append(e.support, t)
		}
		if !vacuous {
			e.clause(e.support...)
		}
	}
	return e.next, true
}

// soleRule reports whether exactly one clause of d can support atom a:
// one clause with a in its shifted head and not in its positive body.
func (e *encoder) soleRule(d *db.DB, a int) bool {
	count := 0
	for _, r := range e.g.headRules(a) {
		if !slices.Contains(d.Clauses[r].PosBody, logic.Atom(a)) {
			count++
		}
	}
	return count == 1
}

// Markers in encoder.bodies: always stands for an empty body, unset
// for a body literal not made yet.
const always, unset logic.Lit = -1, -2

// encoder is the dependency graph plus Support's working state, pooled
// in encoders.
type encoder struct {
	g    depGraph
	mark []int // headCycleFree's scratch

	out   Sink
	buf   []logic.Lit // the clause being written
	next  int         // the next unused variable
	ranks int         // the first rank variable
	// rank[a] is the first of a's width(a) rank bits, least significant
	// first.
	rank []int
	// ones[rank[a]-ranks+i] holds iff a's rank bits 0..i are all ones;
	// onesOf makes a's on first use (0, an original atom, marks unmade).
	ones    []logic.Lit
	bodies  []logic.Lit // body(r)'s literal per clause, or always or unset
	support []logic.Lit
	cond    []logic.Lit
	same    []int
	sole    []bool // sole[a]: shifted, and one clause alone can support a
}

// clause writes one clause.
func (e *encoder) clause(ls ...logic.Lit) {
	e.buf = append(e.buf[:0], ls...)
	e.out.Clause(e.buf)
}

// fresh returns a new auxiliary variable.
func (e *encoder) fresh() logic.Lit {
	e.next++
	return logic.PosLit(logic.Atom(e.next - 1))
}

// width is the number of rank bits of atom a: 0 outside a component of
// two or more atoms.
func (e *encoder) width(a int) int {
	size := e.g.size[e.g.comp[a]]
	if size == 1 {
		return 0
	}
	return bits.Len(uint(size - 1))
}

// bit is a's rank bit i.
func (e *encoder) bit(a, i int) logic.Lit { return logic.PosLit(logic.Atom(e.rank[a] + i)) }

// less adds g → rank(x) < rank(y), x and y in one component: at each
// bit from the top, x's bit is at most y's, and equal bits pass the
// strict comparison on to the bits below.
func (e *encoder) less(g logic.Lit, x, y int) {
	for i := e.width(y) - 1; i > 0; i-- {
		below := e.fresh()
		e.clause(g.Neg(), e.bit(x, i).Neg(), e.bit(y, i))
		e.clause(g.Neg(), e.bit(x, i).Neg(), below)
		e.clause(g.Neg(), e.bit(y, i), below)
		g = below
	}
	e.clause(g.Neg(), e.bit(x, 0).Neg())
	e.clause(g.Neg(), e.bit(y, 0))
}

// onesOf returns a's all-ones prefix literals, making them on first use.
func (e *encoder) onesOf(a int) []logic.Lit {
	o := e.ones[e.rank[a]-e.ranks : e.rank[a]-e.ranks+e.width(a)]
	if o[0] == 0 {
		o[0] = e.bit(a, 0)
		for i := 1; i < len(o); i++ {
			o[i] = e.fresh()
			e.clause(o[i].Neg(), o[i-1])
			e.clause(o[i].Neg(), e.bit(a, i))
			e.clause(o[i], o[i-1].Neg(), e.bit(a, i).Neg())
		}
	}
	return o
}

// succ adds g → rank(y) = rank(x) + 1, x and y in one component: x's
// bits are not all ones, and each bit of y is x's, flipped when x's
// bits below it are all ones (always for bit 0).
func (e *encoder) succ(g logic.Lit, x, y int) {
	o := e.onesOf(x)
	e.clause(g.Neg(), o[len(o)-1].Neg())
	e.clause(g.Neg(), e.bit(x, 0), e.bit(y, 0))
	e.clause(g.Neg(), e.bit(x, 0).Neg(), e.bit(y, 0).Neg())
	for i := 1; i < len(o); i++ {
		xi, yi, c := e.bit(x, i), e.bit(y, i), o[i-1]
		e.clause(g.Neg(), xi.Neg(), c.Neg(), yi.Neg())
		e.clause(g.Neg(), xi, c, yi.Neg())
		e.clause(g.Neg(), xi, c.Neg(), yi)
		e.clause(g.Neg(), xi.Neg(), c, yi)
	}
}

// body returns a literal implying B⁺(r), made on first use; always
// marks an empty body.
func (e *encoder) body(r int, c *db.Clause) logic.Lit {
	if e.bodies[r] != unset {
		return e.bodies[r]
	}
	switch len(c.PosBody) {
	case 0:
		e.bodies[r] = always
	case 1:
		e.bodies[r] = logic.PosLit(c.PosBody[0])
	default:
		s := e.fresh()
		for _, x := range c.PosBody {
			e.clause(s.Neg(), logic.PosLit(x))
		}
		e.bodies[r] = s
	}
	return e.bodies[r]
}
