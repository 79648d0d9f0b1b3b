package sat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// outcome is everything a caller can observe of a solver after a
// Solve, plus the last model in full.
type outcome struct {
	st    Status
	okay  bool
	model []lbool
	final []Lit
	stats Stats
}

func observe(s *Solver, st Status) outcome {
	return outcome{st, s.okay, append([]lbool(nil), s.model...), s.FinalConflict(), s.stats}
}

// copyRun is one restore-versus-fresh comparison: a template loads
// prefix, a used solver copies it and loads suffix, and a fresh solver
// loads prefix ++ suffix; both then solve under each assumption set in
// turn. maxLearnt > 0 lowers the learnt-clause limit on the template
// and the fresh solver, so reduceDB and arena compaction fire.
type copyRun struct {
	nVars          int
	prefix, suffix [][]Lit
	assumptions    [][]Lit
	maxLearnt      float64
}

// check returns the first difference between the restored and the
// fresh solver, or "" when they agree; compacted reports whether the
// restored solver's arena was compacted.
func (r copyRun) check(into *Solver) (diff string, compacted bool) {
	tpl := New(r.nVars)
	fresh := New(r.nVars)
	if r.maxLearnt > 0 {
		tpl.maxLearnt, fresh.maxLearnt = r.maxLearnt, r.maxLearnt
	}
	addAll(tpl, r.prefix)
	okF := addAll(fresh, r.prefix) && addAll(fresh, r.suffix)

	into.CopyFrom(tpl)
	okR := into.Okay() && addAll(into, r.suffix)
	if okR != okF {
		return fmt.Sprintf("load: restored ok=%v, fresh ok=%v", okR, okF), false
	}
	loaded := len(into.arena)
	for i, as := range r.assumptions {
		got, want := observe(into, into.Solve(as...)), observe(fresh, fresh.Solve(as...))
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("solve %d under %v: restored %+v, fresh %+v", i, as, got, want), false
		}
	}
	// Every learnt clause takes at least 5 words (header, two
	// literals, activity), so a shorter arena was compacted.
	return "", len(into.arena) < loaded+5*int(into.stats.Learnt)
}

// randomCopyRun draws a random 3-CNF near the satisfiability threshold,
// a split point and assumption sets.
func randomCopyRun(rng *rand.Rand) copyRun {
	n := 5 + rng.Intn(100)
	cls := randomCNF(rng, n, int(float64(n)*(3.8+0.6*rng.Float64())), 3)
	split := rng.Intn(len(cls) + 1)
	r := copyRun{nVars: n, prefix: cls[:split], suffix: cls[split:]}
	for i := 0; i < 1+rng.Intn(4); i++ {
		var as []Lit
		for j := 0; j < rng.Intn(4); j++ {
			as = append(as, MkLit(rng.Intn(n), rng.Intn(2) == 0))
		}
		r.assumptions = append(r.assumptions, as)
	}
	if rng.Intn(2) == 0 {
		r.maxLearnt = float64(2 + rng.Intn(10))
	}
	return r
}

// TestCopyFromMatchesFreshLoad checks that restoring a loaded prefix
// and adding a suffix is indistinguishable from loading prefix ++
// suffix afresh: Status, the full model, FinalConflict, okay and every
// Stats field agree after each solve, including runs in which reduceDB
// and arena compaction fire. The receiving solver is reused across
// runs of different sizes, so stale capacity must not leak through.
func TestCopyFromMatchesFreshLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	into := New(0)
	compactions := 0
	for run := 0; run < 400; run++ {
		r := randomCopyRun(rng)
		diff, compacted := r.check(into)
		if diff != "" {
			t.Fatalf("run %d (n=%d, split %d/%d): %s", run, r.nVars, len(r.prefix), len(r.prefix)+len(r.suffix), diff)
		}
		if compacted {
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("no run compacted its arena; the test does not cover compaction")
	}
}

// TestCopyFromSolvedSolver copies a solver that has already searched
// (learnt clauses, deleted clauses, compacted arena) and checks that
// the copy and the original stay in lockstep on further clauses and
// solves.
func TestCopyFromSolvedSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for run := 0; run < 100; run++ {
		n := 20 + rng.Intn(40)
		orig := New(n)
		orig.maxLearnt = float64(2 + rng.Intn(10))
		addAll(orig, randomCNF(rng, n, int(float64(n)*4.1), 3))
		for i := 0; i < 3; i++ {
			orig.Solve(MkLit(rng.Intn(n), rng.Intn(2) == 0))
		}
		cp := New(rng.Intn(80))
		cp.CopyFrom(orig)
		for i := 0; i < 3; i++ {
			cl := randomCNF(rng, n, 1, 3)[0]
			if a, b := orig.AddClause(cl...), cp.AddClause(cl...); a != b {
				t.Fatalf("run %d: AddClause orig=%v copy=%v", run, a, b)
			}
			as := []Lit{MkLit(rng.Intn(n), rng.Intn(2) == 0)}
			want, got := observe(orig, orig.Solve(as...)), observe(cp, cp.Solve(as...))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d solve %d: copy %+v, original %+v", run, i, got, want)
			}
		}
	}
}

// FuzzPrefixRestore checks the restore-versus-fresh identity of
// TestCopyFromMatchesFreshLoad on fuzzed CNFs. Byte 0 picks the
// variable count, byte 1 the split point, byte 2 the learnt-clause
// limit, bytes 3..5 three one-literal assumption sets; the rest is a
// clause list in which 0 ends a clause and b > 0 is variable
// (b>>1) mod n, negated when b is odd.
func FuzzPrefixRestore(f *testing.F) {
	f.Add([]byte{3, 1, 4, 2, 5, 7, 2, 4, 0, 3, 6, 0, 5, 0})
	f.Add([]byte{8, 200, 0, 9, 12, 3, 2, 5, 9, 0, 3, 4, 11, 0, 6, 8, 13, 0, 10, 15, 0, 7, 0})
	f.Add([]byte{1, 0, 2, 2, 3, 0, 2, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 1 + int(data[0])%12
		r := copyRun{nVars: n, maxLearnt: float64(2 + int(data[2])%16)}
		var cls [][]Lit
		var cur []Lit
		for _, b := range data[6:] {
			if b == 0 {
				cls = append(cls, cur)
				cur = nil
				continue
			}
			cur = append(cur, MkLit(int(b>>1)%n, b&1 == 0))
		}
		if cur != nil {
			cls = append(cls, cur)
		}
		split := int(data[1]) % (len(cls) + 1)
		r.prefix, r.suffix = cls[:split], cls[split:]
		for _, b := range data[3:6] {
			r.assumptions = append(r.assumptions, []Lit{MkLit(int(b>>1)%n, b&1 == 0)})
		}
		if diff, _ := r.check(New(0)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestUnsatUnderAssumptionsAllocatesNothing pins that final-conflict
// analysis runs in solver scratch: an Unsat-under-assumptions solve,
// through analyzeFinal (a conflict at assumption level) or
// analyzeFinalLit (an assumption falsified by earlier ones), makes no
// heap allocation once the solver is warm.
func TestUnsatUnderAssumptionsAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clauses [][]Lit
		assume  []Lit
	}{
		{"analyzeFinal", [][]Lit{lits(-1, 2), lits(-1, 3), lits(-2, -3)}, lits(1)},
		{"analyzeFinalLit", [][]Lit{lits(-1, 2), lits(-2, 3), lits(-3, -4)}, lits(1, 4)},
	} {
		s := New(4)
		addAll(s, tc.clauses)
		if st := s.Solve(tc.assume...); st != Unsat || len(s.finalConf) == 0 {
			t.Fatalf("%s: Solve = %v with final conflict %v, want Unsat with a conflict", tc.name, st, s.finalConf)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Solve(tc.assume...) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Unsat-under-assumptions solve, want 0", tc.name, allocs)
		}
	}
}
