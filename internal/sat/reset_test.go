package sat

import (
	"math/rand"
	"testing"
)

// randClauses generates a random 3-ish-CNF over n variables.
func randClauses(rng *rand.Rand, n, m int) [][]Lit {
	out := make([][]Lit, m)
	for i := range out {
		k := 1 + rng.Intn(3)
		cl := make([]Lit, k)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
		}
		out[i] = cl
	}
	return out
}

// TestResetMatchesFresh solves a stream of random instances on one
// Reset-reused solver and on fresh solvers, expecting identical
// verdicts (and a model verifying each Sat verdict).
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	reused := New(0)
	for round := 0; round < 200; round++ {
		n := 3 + rng.Intn(12)
		cls := randClauses(rng, n, 2+rng.Intn(4*n))

		reused.Reset(n)
		okR := true
		for _, cl := range cls {
			if !reused.AddClause(cl...) {
				okR = false
				break
			}
		}
		stR := Unsat
		if okR {
			stR = reused.Solve()
		}

		fresh := New(n)
		okF := true
		for _, cl := range cls {
			if !fresh.AddClause(cl...) {
				okF = false
				break
			}
		}
		stF := Unsat
		if okF {
			stF = fresh.Solve()
		}

		if stR != stF {
			t.Fatalf("round %d: reused=%v fresh=%v", round, stR, stF)
		}
		if stR == Sat {
			// Verify the reused solver's model against the clause set.
			for ci, cl := range cls {
				sat := false
				for _, l := range cl {
					if reused.ModelLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("round %d: reused model violates clause %d", round, ci)
				}
			}
		}
	}
}

// TestResetClearsState checks that facts and budgets from one use do
// not leak into the next.
func TestResetClearsState(t *testing.T) {
	s := New(2)
	s.AddClause(MkLit(0, true))
	s.AddClause(MkLit(0, false)) // top-level conflict: solver dead
	if s.Okay() {
		t.Fatal("expected top-level conflict")
	}
	s.SetConflictBudget(0)
	s.SetRestartsEnabled(false)

	s.Reset(1)
	if !s.Okay() {
		t.Fatal("Reset did not clear the conflict state")
	}
	if got := s.NumVars(); got != 1 {
		t.Fatalf("NumVars after Reset = %d, want 1", got)
	}
	if !s.AddClause(MkLit(0, false)) {
		t.Fatal("AddClause failed after Reset")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve after Reset = %v (budget/unit leak?)", st)
	}
	if s.Model(0) {
		t.Fatal("unit ¬x0 not respected after Reset")
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("stats not reset: Solves = %d", got)
	}
}

// TestResetGrowAndShrink reuses one solver across very different sizes.
func TestResetGrowAndShrink(t *testing.T) {
	s := New(4)
	for _, n := range []int{100, 3, 50, 1, 200} {
		s.Reset(n)
		// chain x0 → x1 → … → x_{n-1}, assert x0
		for v := 0; v+1 < n; v++ {
			s.AddClause(MkLit(v, false), MkLit(v+1, true))
		}
		s.AddClause(MkLit(0, true))
		if st := s.Solve(); st != Sat {
			t.Fatalf("n=%d: %v", n, st)
		}
		for v := 0; v < n; v++ {
			if !s.Model(v) {
				t.Fatalf("n=%d: implication chain broken at %d", n, v)
			}
		}
	}
}

// TestReuseWalksOnlyOwnSize: after a large instance, Reset and CopyFrom
// size the watcher buckets and the heap index to the new instance, so a
// pooled solver does not walk its high-water size on every reuse, and
// a bucket that comes back into range is empty.
func TestReuseWalksOnlyOwnSize(t *testing.T) {
	const big, small = 4096, 8
	s := New(0)
	s.Reset(big)
	for v := 0; v+1 < big; v++ {
		s.AddClause(MkLit(v, false), MkLit(v+1, true))
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("big instance: %v", st)
	}
	s.Reset(small)
	if len(s.watches) != 2*small || len(s.order.index) != small {
		t.Fatalf("after Reset(%d): len(watches) = %d, len(order.index) = %d", small, len(s.watches), len(s.order.index))
	}

	tpl := New(small)
	tpl.AddClause(MkLit(0, true), MkLit(1, true))
	s.Reset(big)
	for v := 0; v+1 < big; v++ {
		s.AddClause(MkLit(v, false), MkLit(v+1, true))
	}
	s.CopyFrom(tpl)
	if len(s.watches) != 2*small || len(s.order.index) != small {
		t.Fatalf("after CopyFrom: len(watches) = %d, len(order.index) = %d", len(s.watches), len(s.order.index))
	}
	s.Reset(small + 2)
	for i, ws := range s.watches {
		if len(ws) != 0 {
			t.Fatalf("bucket %d holds %d stale watchers after Reset", i, len(ws))
		}
	}
}
