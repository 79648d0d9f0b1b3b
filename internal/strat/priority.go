package strat

import (
	"disjunct/internal/budget"
	"disjunct/internal/db"
)

// Priority is Przymusinski's priority relation on atoms (§5.1): a
// reflexive-transitive preorder ≤ whose strict part < drives the
// preference relation between models. "x < y means that y has higher
// priority than x."
//
// For each clause a1∨…∨an ← b1∧…∧bk∧¬c1∧…∧¬cm of the database:
//
//	(i)   ai < cj        for all i, j  (heads strictly below negated body)
//	(ii)  ai ≤ bj        for all i, j  (heads at most the positive body)
//	(iii) ai ≈ aj        for all i, j  (head atoms equivalent)
//
// ≤ is then closed under reflexivity and transitivity, and
// x < y iff x ≤ y ∧ ¬(y ≤ x).
type Priority struct {
	n   int
	leq []bool // leq[x*n+y] = (x ≤ y)
}

// NewPriority computes the priority relation of d. The construction is
// O(n³) (Floyd–Warshall style transitive closure), fine for the
// propositional databases of the benchmarks. The closure polls b every
// pollRows outer rows and trips it once exhausted; a nil b never trips.
func NewPriority(d *db.DB, b *budget.B) *Priority {
	n := d.N()
	p := &Priority{n: n, leq: make([]bool, n*n)}
	set := func(x, y int) { p.leq[x*n+y] = true }
	for i := 0; i < n; i++ {
		set(i, i)
	}
	for _, c := range d.Clauses {
		for _, h := range c.Head {
			for _, cn := range c.NegBody {
				set(int(h), int(cn))
			}
			for _, b := range c.PosBody {
				set(int(h), int(b))
			}
			for _, h2 := range c.Head {
				set(int(h), int(h2))
				set(int(h2), int(h))
			}
		}
	}
	// Transitive closure.
	for k := 0; k < n; k++ {
		if k%pollRows == pollRows-1 {
			if err := b.Err(); err != nil {
				budget.Trip(err)
			}
		}
		for i := 0; i < n; i++ {
			if !p.leq[i*n+k] {
				continue
			}
			row := p.leq[k*n : k*n+n]
			for j, v := range row {
				if v {
					p.leq[i*n+j] = true
				}
			}
		}
	}
	return p
}

// pollRows is how many closure rows, each O(n²), run between budget
// polls.
const pollRows = 8

// Leq reports x ≤ y.
func (p *Priority) Leq(x, y int) bool { return p.leq[x*p.n+y] }

// Less reports x < y (strictly lower priority).
func (p *Priority) Less(x, y int) bool {
	return p.leq[x*p.n+y] && !p.leq[y*p.n+x]
}
