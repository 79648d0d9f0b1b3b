package sat

import (
	"math/rand"
	"testing"
)

// TestAddClauseNormalisation pins AddClause's clause normalisation:
// duplicates dropped in first-occurrence order, tautologies and
// clauses true at level 0 not stored, literals false at level 0
// dropped, variables beyond nVars grown in mid-clause, and the literal
// marks cleared on every return path (a clause reusing the literals of
// one that returned early is stored intact).
func TestAddClauseNormalisation(t *testing.T) {
	cases := []struct {
		name   string
		nVars  int
		pre    [][]int // added first, results ignored
		add    []int
		ok     bool
		stored []int // the stored clause; nil when none is stored
		unit   int   // the literal enqueued at level 0; 0 for none
	}{
		{name: "plain", nVars: 3, add: []int{1, -2, 3}, ok: true, stored: []int{1, -2, 3}},
		{name: "duplicates", nVars: 3, add: []int{2, 1, 2, 3, 1}, ok: true, stored: []int{2, 1, 3}},
		{name: "tautology", nVars: 3, add: []int{1, 2, -1}, ok: true},
		{name: "duplicate unit", nVars: 3, add: []int{2, 2}, ok: true, unit: 2},
		{name: "true at level 0", nVars: 3, pre: [][]int{{2}}, add: []int{1, 2, 3}, ok: true},
		{name: "false at level 0", nVars: 3, pre: [][]int{{-2}}, add: []int{1, 2, 3}, ok: true, stored: []int{1, 3}},
		{name: "false to unit", nVars: 3, pre: [][]int{{-2}}, add: []int{2, 3}, ok: true, unit: 3},
		{name: "all false", nVars: 3, pre: [][]int{{-1}}, add: []int{1, 1}, ok: false},
		{name: "grow mid-clause", nVars: 2, add: []int{1, 6, 2, 6}, ok: true, stored: []int{1, 6, 2}},
		{name: "grow then tautology", nVars: 2, add: []int{1, 7, -7}, ok: true},
		{name: "reuse after tautology", nVars: 3, pre: [][]int{{1, 2, -1}}, add: []int{-1, -2, 3}, ok: true, stored: []int{-1, -2, 3}},
		{name: "reuse after true at level 0", nVars: 4, pre: [][]int{{3}, {1, 2, 3}}, add: []int{-1, -2, 4}, ok: true, stored: []int{-1, -2, 4}},
		{name: "reuse after grow", nVars: 1, pre: [][]int{{1, 5, -5}}, add: []int{-1, -5}, ok: true, stored: []int{-1, -5}},
	}
	for _, tc := range cases {
		s := New(tc.nVars)
		for _, c := range tc.pre {
			s.AddClause(lits(c...)...)
		}
		nArena, nTrail := len(s.arena), len(s.trail)
		if got := s.AddClause(lits(tc.add...)...); got != tc.ok {
			t.Errorf("%s: AddClause = %v, want %v", tc.name, got, tc.ok)
		}
		var stored []Lit
		if len(s.arena) > nArena {
			stored = s.lits(cref(nArena))
		}
		if want := lits(tc.stored...); !equalLits(stored, want) {
			t.Errorf("%s: stored clause %v, want %v", tc.name, stored, want)
		}
		if tc.unit != 0 {
			if len(s.trail) <= nTrail || s.trail[nTrail] != lits(tc.unit)[0] {
				t.Errorf("%s: trail %v, want %v enqueued after position %d", tc.name, s.trail, lits(tc.unit), nTrail)
			}
		} else if tc.ok && len(s.trail) != nTrail {
			t.Errorf("%s: trail grew to %v, want no enqueue", tc.name, s.trail)
		}
		if len(s.litMark) != 2*s.NumVars() {
			t.Errorf("%s: %d literal marks for %d variables", tc.name, len(s.litMark), s.NumVars())
		}
		for l, m := range s.litMark {
			if m {
				t.Errorf("%s: literal %d still marked after AddClause", tc.name, l)
			}
		}
	}
}

func equalLits(a, b []Lit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkAddClause loads a 20-variable random CNF into one
// Reset-reused solver per iteration: the per-query set-up cost of the
// oracle's pooled one-shot path.
func BenchmarkAddClause(b *testing.B) {
	cls := randomCNF(rand.New(rand.NewSource(7)), 20, 80, 3)
	s := New(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset(20)
		addAll(s, cls)
	}
}
