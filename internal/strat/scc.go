package strat

import (
	"sync"

	"disjunct/internal/db"
	"disjunct/internal/logic"
)

// This file holds the package's one strongly-connected-components pass
// and the positive dependency graph it runs on for Components,
// HeadCycleFree and the support encoder (support.go). Compute runs the
// same pass on its stratification graph.

// sccWork holds Tarjan's working arrays, reused across runs.
type sccWork struct {
	index, low []int // discovery order from 1 (0 = unvisited); low-link
	onStack    []bool
	stack      []int
	frames     []sccFrame
}

// sccFrame is one vertex on the depth-first path and the offset of its
// next out-edge.
type sccFrame struct{ v, e int }

// sccs computes the strongly connected components of the directed graph
// on len(off)-1 vertices whose out-edges of v are to[off[v]:off[v+1]],
// by Tarjan's algorithm with an explicit stack (no recursion, so deep
// graphs cannot overflow the goroutine stack). comp[v] receives v's
// component; components are numbered in reverse topological order (an
// edge never leads to a higher number). size, when non-nil, receives
// each component's vertex count, and sccs returns size and the
// component count.
func (w *sccWork) sccs(off, to, comp, size []int) ([]int, int) {
	n := len(off) - 1
	w.index = resize(w.index, n)
	w.low = resize(w.low, n)
	w.onStack = resize(w.onStack, n)
	w.stack = w.stack[:0]
	size = size[:0]
	order, nComp := 0, 0
	for root := 0; root < n; root++ {
		if w.index[root] != 0 {
			continue
		}
		w.frames = append(w.frames[:0], sccFrame{root, off[root]})
		order++
		w.index[root], w.low[root] = order, order
		w.stack = append(w.stack, root)
		w.onStack[root] = true
		for len(w.frames) > 0 {
			f := &w.frames[len(w.frames)-1]
			v := f.v
			if f.e < off[v+1] {
				x := to[f.e]
				f.e++
				switch {
				case w.index[x] == 0:
					order++
					w.index[x], w.low[x] = order, order
					w.stack = append(w.stack, x)
					w.onStack[x] = true
					w.frames = append(w.frames, sccFrame{x, off[x]})
				case w.onStack[x]:
					w.low[v] = min(w.low[v], w.index[x])
				}
				continue
			}
			w.frames = w.frames[:len(w.frames)-1]
			if len(w.frames) > 0 {
				p := w.frames[len(w.frames)-1].v
				w.low[p] = min(w.low[p], w.low[v])
			}
			if w.low[v] < w.index[v] {
				continue
			}
			count := 0
			for {
				x := w.stack[len(w.stack)-1]
				w.stack = w.stack[:len(w.stack)-1]
				w.onStack[x] = false
				comp[x] = nComp
				count++
				if x == v {
					break
				}
			}
			size = append(size, count)
			nComp++
		}
	}
	return size, nComp
}

// resize returns s with length n and every element zero, reusing its
// capacity when it suffices.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// depGraph is the positive dependency graph of a database read as its
// head-shifted positive program: each clause a1∨…∨an ← B⁺ ∧ ¬c1…¬cm is
// read as a1∨…∨an∨c1∨…∨cm ← B⁺ (the same classical clause), so its
// shifted head is Head ∪ NegBody. The graph has an edge h → b for every
// shifted head atom h and positive body atom b of a clause. On a
// positive database the shifted head is the head, and the graph is the
// ordinary positive dependency graph.
type depGraph struct {
	headOff, heads []int // heads[headOff[a]:headOff[a+1]]: clauses with a in their shifted head, in clause order
	off, to        []int // the edges, in the layout of sccs
	comp, size     []int // the components and their atom counts
	scc            sccWork
}

// build computes the graph of d and its components.
func (g *depGraph) build(d *db.DB) {
	n := d.N()
	g.headOff = resize(g.headOff, n+1)
	total := 0
	for _, c := range d.Clauses {
		for _, h := range c.Head {
			g.headOff[h+1]++
		}
		for _, h := range c.NegBody {
			g.headOff[h+1]++
		}
		total += len(c.Head) + len(c.NegBody)
	}
	for a := 0; a < n; a++ {
		g.headOff[a+1] += g.headOff[a]
	}
	// fill[a] is the next free slot of a's clause list.
	g.off = resize(g.off, n+1)
	fill := g.off[:n]
	copy(fill, g.headOff[:n])
	g.heads = resize(g.heads, total)
	for r, c := range d.Clauses {
		for _, h := range c.Head {
			g.heads[fill[h]] = r
			fill[h]++
		}
		for _, h := range c.NegBody {
			g.heads[fill[h]] = r
			fill[h]++
		}
	}

	g.off[0] = 0
	for a := 0; a < n; a++ {
		deg := 0
		for _, r := range g.headRules(a) {
			deg += len(d.Clauses[r].PosBody)
		}
		g.off[a+1] = g.off[a] + deg
	}
	g.to = resize(g.to, g.off[n])
	e := 0
	for a := 0; a < n; a++ {
		for _, r := range g.headRules(a) {
			for _, b := range d.Clauses[r].PosBody {
				g.to[e] = int(b)
				e++
			}
		}
	}
	g.comp = resize(g.comp, n)
	g.size, _ = g.scc.sccs(g.off, g.to, g.comp, g.size)
}

// headRules lists the clauses with a in their shifted head.
func (g *depGraph) headRules(a int) []int { return g.heads[g.headOff[a]:g.headOff[a+1]] }

// headCycleFree reports whether no clause of d has two distinct
// shifted head atoms in one component. mark is scratch space, returned
// for reuse: per component, the last clause index plus one to reach it
// and, in the second half, the head atom that reached it.
func (g *depGraph) headCycleFree(d *db.DB, mark []int) ([]int, bool) {
	k := len(g.size)
	mark = resize(mark, 2*k)
	for r, c := range d.Clauses {
		for _, part := range [2][]logic.Atom{c.Head, c.NegBody} {
			for _, h := range part {
				ci := g.comp[h]
				if mark[ci] == r+1 && mark[k+ci] != int(h) {
					return mark, false
				}
				mark[ci], mark[k+ci] = r+1, int(h)
			}
		}
	}
	return mark, true
}

// encoders pools dependency graphs with the support encoder's working
// arrays, so a warm HeadCycleFree or Support allocates nothing.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Components numbers the strongly connected components of d's positive
// dependency graph (see depGraph: a database with negation is read as
// its head-shifted positive program): comp[a] is atom a's component and
// size[comp[a]] its atom count.
func Components(d *db.DB) (comp, size []int) {
	var g depGraph
	g.build(d)
	return g.comp, g.size
}

// HeadCycleFree reports whether d is head-cycle-free: no clause has two
// distinct head atoms in one strongly connected component of the
// positive dependency graph. A database with negation is tested as its
// head-shifted positive program (negated body atoms join the head), the
// program whose minimal models are those of d.ToCNF(). On a
// head-cycle-free database the minimal models of d.ToCNF() are exactly
// the stable models of the shifted normal program, which the support
// encoding (Support with shifted set) describes in one CNF.
func HeadCycleFree(d *db.DB) bool {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.g.build(d)
	var ok bool
	e.mark, ok = e.g.headCycleFree(d, e.mark)
	return ok
}
