// Package cache computes the keys under which compiled databases are
// shared: the exact query fingerprint (RawKey), which keys the session
// verdict memo, the store, the router's consistent-hash ring and the
// keyspace arcs, and the canonical structural key (Canonicalize),
// which names a compiled database up to variable renaming.
//
// Canonicalize maps a CNF to a structural key — literals and clauses
// sorted and deduplicated, tautologies dropped, variables renamed
// canonically — such that EQUAL KEYS GUARANTEE ISOMORPHIC CNFs: the
// key is the renamed clause set itself, so two inputs with the same
// key are both variable renamings of one clause set.
//
// The renaming is computed nauty-style in miniature: iterated
// signature refinement to a fixpoint, then branching individualization
// over the first ambiguous signature class, keeping the
// lexicographically smallest serialized form. Soundness is
// one-directional by construction: a key collision between
// non-isomorphic CNFs is impossible, while two isomorphic CNFs may in
// rare cases receive different keys when the individualization budget
// runs out on a highly symmetric instance.
package cache

import (
	"bytes"
	"encoding/binary"
	"slices"

	"disjunct/internal/logic"
)

// Key is the canonical structural key of a CNF: the serialized
// canonical clause set. Keys compare byte-for-byte, so equal keys
// always denote isomorphic CNFs.
type Key string

// Canon is the canonicalization result for one CNF.
type Canon struct {
	// Key is the structural key: equal Keys ⇒ isomorphic CNFs.
	Key Key
	// Raw is the exact query fingerprint — variable count and clause
	// sequence verbatim (order, duplicates and all); see RawKey.
	Raw string
}

// branchBudget bounds the number of complete candidate labelings the
// individualization search will serialize for one query. Most queries
// refine to discrete signatures immediately (budget untouched); the
// bound only kicks in on highly symmetric instances, where exhausting
// it may split an isomorphism class across keys, never merge two.
const branchBudget = 48

// Canonicalize computes the structural key and exact fingerprint of a
// CNF query over nVars variables. It never mutates cnf.
func Canonicalize(nVars int, cnf logic.CNF) Canon {
	nm := normalize(cnf)
	st := &canonState{clauses: nm.clauses, n: nm.n, budget: branchBudget}
	sig := st.initialSigs()
	st.refine(sig)
	st.search(sig, 0)
	return Canon{Key: Key(st.best), Raw: RawKey(nVars, cnf)}
}

// normalized is the renaming-ready normal form the canonical labeling
// starts from: literals sorted and deduplicated per
// clause, tautological clauses dropped, variables mapped onto dense
// ids in order of first occurrence, clauses sorted and deduplicated.
// Two isomorphic inputs normalize to clause sets that are variable
// renamings of each other.
type normalized struct {
	clauses [][]int // dense literals 2v / 2v+1, lit-sorted, clause-deduped
	n       int     // dense variable count
}

// normalize computes the normal form. It never mutates cnf.
func normalize(cnf logic.CNF) normalized {
	denseOf := map[logic.Atom]int{}
	nDense := 0
	clauses := make([][]int, 0, len(cnf))
	for _, cl := range cnf {
		c := append([]logic.Lit(nil), cl...)
		slices.Sort(c)
		c = slices.Compact(c)
		taut := false
		for i := 0; i+1 < len(c); i++ {
			if c[i].Atom() == c[i+1].Atom() {
				taut = true
				break
			}
		}
		if taut {
			continue
		}
		dc := make([]int, len(c))
		for i, l := range c {
			d, ok := denseOf[l.Atom()]
			if !ok {
				d = nDense
				denseOf[l.Atom()] = d
				nDense++
			}
			dl := 2 * d
			if !l.IsPos() {
				dl++
			}
			dc[i] = dl
		}
		slices.Sort(dc) // dense relabeling may reorder within the clause
		clauses = append(clauses, dc)
	}
	slices.SortFunc(clauses, slices.Compare)
	clauses = slices.CompactFunc(clauses, slices.Equal[[]int])
	return normalized{clauses: clauses, n: nDense}
}

// canonState is the working state of the canonical-labeling search
// over one normalized clause set.
type canonState struct {
	clauses [][]int // dense literals 2v / 2v+1, lit-sorted, clause-deduped
	n       int     // dense variable count
	budget  int     // remaining complete labelings to try
	best    []byte  // lexicographically smallest serialization so far
}

// initialSigs seeds every variable's signature with its occurrence
// profile: the sorted multiset of (clause length, polarity) pairs.
func (st *canonState) initialSigs() []uint64 {
	occ := make([][]uint64, st.n)
	for _, c := range st.clauses {
		for _, dl := range c {
			occ[dl>>1] = append(occ[dl>>1], mix(uint64(len(c)), uint64(dl&1)))
		}
	}
	sig := make([]uint64, st.n)
	for v := range sig {
		slices.Sort(occ[v])
		sig[v] = hashSeq(0x9e3779b97f4a7c15, occ[v])
	}
	return sig
}

// refine iterates signature refinement in place until the number of
// distinct signatures stops growing (an equitable-partition fixpoint
// up to hashing).
func (st *canonState) refine(sig []uint64) {
	if st.n == 0 {
		return
	}
	distinct := countDistinct(sig)
	clauseSig := make([]uint64, len(st.clauses))
	occ := make([][]uint64, st.n)
	for round := 0; round < st.n; round++ {
		if distinct == st.n {
			return
		}
		for ci, c := range st.clauses {
			lits := make([]uint64, len(c))
			for i, dl := range c {
				lits[i] = mix(sig[dl>>1], uint64(dl&1))
			}
			slices.Sort(lits)
			clauseSig[ci] = hashSeq(uint64(len(c)), lits)
		}
		for v := range occ {
			occ[v] = occ[v][:0]
		}
		for ci, c := range st.clauses {
			for _, dl := range c {
				occ[dl>>1] = append(occ[dl>>1], mix(clauseSig[ci], uint64(dl&1)))
			}
		}
		for v := 0; v < st.n; v++ {
			slices.Sort(occ[v])
			sig[v] = hashSeq(sig[v], occ[v])
		}
		next := countDistinct(sig)
		if next == distinct {
			return
		}
		distinct = next
	}
}

// search branches over the members of the first ambiguous signature
// class (individualization–refinement), keeping the lexicographically
// smallest serialized labeling in st.best. depth tags the
// individualization marker so nested branches stay distinguishable.
func (st *canonState) search(sig []uint64, depth int) {
	class := st.firstAmbiguousClass(sig)
	if class == nil {
		st.budget--
		st.offer(st.serializeWith(sig))
		return
	}
	for _, v := range class {
		if st.budget <= 0 {
			return
		}
		child := slices.Clone(sig)
		child[v] = mix(child[v], 0xd1342543de82ef95+uint64(depth))
		st.refine(child)
		st.search(child, depth+1)
	}
}

// firstAmbiguousClass returns the dense ids sharing the smallest
// non-unique signature value, or nil when all signatures are distinct.
// The choice is renaming-invariant (it depends only on signature
// values).
func (st *canonState) firstAmbiguousClass(sig []uint64) []int {
	counts := make(map[uint64]int, len(sig))
	for _, s := range sig {
		counts[s]++
	}
	bestSig, found := uint64(0), false
	for s, c := range counts {
		if c > 1 && (!found || s < bestSig) {
			bestSig, found = s, true
		}
	}
	if !found {
		return nil
	}
	var class []int
	for v, s := range sig {
		if s == bestSig {
			class = append(class, v)
		}
	}
	return class
}

// offer keeps cand if it beats the current best serialization.
func (st *canonState) offer(cand []byte) {
	if st.best == nil || bytes.Compare(cand, st.best) < 0 {
		st.best = cand
	}
}

// serializeWith ranks variables by (signature, dense id), rewrites the
// clause set under that renaming, sorts and deduplicates it, and
// serializes the result. When all signatures are distinct the dense-id
// tiebreak is never consulted and the output is renaming-invariant.
func (st *canonState) serializeWith(sig []uint64) []byte {
	order := make([]int, st.n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if sig[i] != sig[j] {
			if sig[i] < sig[j] {
				return -1
			}
			return 1
		}
		return i - j
	})
	rank := make([]int, st.n)
	for r, v := range order {
		rank[v] = r
	}
	canon := make([][]int, len(st.clauses))
	for ci, c := range st.clauses {
		nc := make([]int, len(c))
		for i, dl := range c {
			nc[i] = 2*rank[dl>>1] + dl&1
		}
		slices.Sort(nc)
		canon[ci] = nc
	}
	slices.SortFunc(canon, slices.Compare)
	canon = slices.CompactFunc(canon, slices.Equal[[]int])

	buf := make([]byte, 0, 16+4*len(canon))
	buf = binary.AppendUvarint(buf, uint64(len(canon)))
	for _, c := range canon {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		for _, l := range c {
			buf = binary.AppendUvarint(buf, uint64(l))
		}
	}
	return buf
}

// RawKey is the exact query fingerprint (Canon.Raw) computed without
// the canonical labeling: variable count and clause sequence verbatim.
func RawKey(nVars int, cnf logic.CNF) string {
	buf := make([]byte, 0, 16+4*len(cnf))
	buf = binary.AppendUvarint(buf, uint64(nVars))
	buf = binary.AppendUvarint(buf, uint64(len(cnf)))
	for _, c := range cnf {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		for _, l := range c {
			buf = binary.AppendUvarint(buf, uint64(l))
		}
	}
	return string(buf)
}

func countDistinct(sig []uint64) int {
	seen := make(map[uint64]struct{}, len(sig))
	for _, s := range sig {
		seen[s] = struct{}{}
	}
	return len(seen)
}

// mix combines two words (splitmix64-style finalizer over their sum).
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashSeq folds a seed and a word sequence into one word.
func hashSeq(seed uint64, words []uint64) uint64 {
	h := mix(seed, uint64(len(words)))
	for _, w := range words {
		h = mix(h, w)
	}
	return h
}
