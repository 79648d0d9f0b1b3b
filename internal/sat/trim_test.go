package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTrimIsInvisible runs the incremental pattern of a warm engine —
// solve under assumptions, add a fresh variable and clauses over it,
// solve again — on two solvers, trimming one of them between every
// step. Status, the full model, FinalConflict, okay and every Stats
// field must agree after each solve, including runs in which reduceDB
// and arena compaction fire, and a trimmed solver must hold no spare
// capacity.
func TestTrimIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for run := 0; run < 300; run++ {
		r := randomCopyRun(rng)
		trimmed, plain := New(r.nVars), New(r.nVars)
		if r.maxLearnt > 0 {
			trimmed.maxLearnt, plain.maxLearnt = r.maxLearnt, r.maxLearnt
		}
		okT := addAll(trimmed, r.prefix)
		trimmed.Trim()
		okT = okT && addAll(trimmed, r.suffix)
		okP := addAll(plain, r.prefix) && addAll(plain, r.suffix)
		if okT != okP {
			t.Fatalf("run %d: load ok trimmed=%v plain=%v", run, okT, okP)
		}
		for i, as := range r.assumptions {
			trimmed.Trim()
			got, want := observe(trimmed, trimmed.Solve(as...)), observe(plain, plain.Solve(as...))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d, solve %d under %v: trimmed %+v, plain %+v", run, i, as, got, want)
			}
			trimmed.Trim()
			if cap(trimmed.arena) != len(trimmed.arena) || cap(trimmed.watches) != len(trimmed.watches) || cap(trimmed.assign) != len(trimmed.assign) {
				t.Fatalf("run %d: trimmed solver kept spare capacity", run)
			}
			// A guarded clause over a new activation variable, as the
			// incremental engine adds per query.
			act := MkLit(trimmed.NewVar(), true)
			if v := plain.NewVar(); v != act.Var() {
				t.Fatalf("run %d: NewVar trimmed=%d plain=%d", run, act.Var(), v)
			}
			cl := []Lit{act.Neg(), MkLit(rng.Intn(r.nVars), rng.Intn(2) == 0), MkLit(rng.Intn(r.nVars), rng.Intn(2) == 0)}
			if a, b := trimmed.AddClause(cl...), plain.AddClause(cl...); a != b {
				t.Fatalf("run %d: AddClause trimmed=%v plain=%v", run, a, b)
			}
		}
	}
}
