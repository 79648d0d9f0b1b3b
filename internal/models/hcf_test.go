package models

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
	"disjunct/internal/strat"
)

// checkHCF drains IterateMinimalModelsHCF on d. On a head-cycle-free d
// the model set must be refsem's minimal models of d.ToCNF(), at
// exactly models + 1 NP calls; on any other d the iterator must end
// with ErrHeadCycle before yielding or charging an NP call. It reports whether d is
// head-cycle-free.
func checkHCF(t *testing.T, label string, d *db.DB) bool {
	t.Helper()
	o := oracle.NewNP()
	var got []logic.Interp
	_, err := Drain(IterateMinimalModelsHCF(d, o, 0), func(m logic.Interp) bool {
		got = append(got, m)
		return true
	})
	if !strat.HeadCycleFree(d) {
		if !errors.Is(err, ErrHeadCycle) || len(got) != 0 || o.Counters().NPCalls != 0 {
			t.Fatalf("%s: head cycle: %d models at %d NP calls, err %v, want ErrHeadCycle at none\n%s",
				label, len(got), o.Counters().NPCalls, err, d)
		}
		return false
	}
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, d)
	}
	want := refsem.MinimalModels(d)
	if !refsem.SameModelSet(want, got) || len(got) != len(want) {
		t.Fatalf("%s: %d models %v, refsem %d %v\n%s", label, len(got), got, len(want), want, d)
	}
	if np := o.Counters().NPCalls; np != int64(len(got))+1 {
		t.Fatalf("%s: %d NP calls for %d models, want models + 1\n%s", label, np, len(got), d)
	}
	return true
}

// addRing closes a positive cycle a₁ ← a₂ ← … ← a₁ of single-head rules
// through some atoms of d, so the corpus has components of two or more
// atoms, where the encoding ranks.
func addRing(rng *rand.Rand, d *db.DB) {
	ring := rng.Perm(d.N())[:1+rng.Intn(d.N())]
	for i, a := range ring {
		d.Add(db.Clause{
			Head:    []logic.Atom{logic.Atom(a)},
			PosBody: []logic.Atom{logic.Atom(ring[(i+1)%len(ring)])},
		})
	}
}

// TestHCFMatchesReference is the head-cycle-free differential corpus:
// seeds 1–3 × 1500 databases over n ≤ 9 atoms, positive, with
// integrity clauses and normal in turn, every other one with a forced
// positive cycle. It fails unless the corpus has non-tight
// head-cycle-free databases (a component of two or more atoms) and
// head-cycle databases.
func TestHCFMatchesReference(t *testing.T) {
	families := []func(int, int) gen.Config{gen.Positive, gen.WithIntegrity, gen.Normal}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		hcf, nonTight, cyclic := 0, 0, 0
		for i := 0; i < 1500; i++ {
			n := 1 + rng.Intn(9)
			d := gen.Random(rng, families[i%3](n, 1+rng.Intn(n+2)))
			if i%2 == 1 {
				addRing(rng, d)
			}
			if !checkHCF(t, fmt.Sprintf("seed %d db %d", seed, i), d) {
				cyclic++
				continue
			}
			hcf++
			if _, size := strat.Components(d); len(size) < d.N() {
				nonTight++
			}
		}
		t.Logf("seed %d: %d head-cycle-free (%d non-tight), %d with a head cycle", seed, hcf, nonTight, cyclic)
		if nonTight == 0 || cyclic == 0 {
			t.Fatalf("seed %d: %d head-cycle-free (%d non-tight), %d with a head cycle", seed, hcf, nonTight, cyclic)
		}
	}
}

func TestHCFNamedDatabases(t *testing.T) {
	for _, tc := range []struct {
		db  string
		hcf bool
	}{
		{"a | c. a :- b. b :- a.", true}, // non-tight: {c} and {a, b}
		{"a | b. a :- b. b :- a.", false},
		{"a | b. b | c. d :- a. e | a :- c.", true},
		{"a :- not b. b :- not a.", true},
		{"a | b. :- a. :- b.", true}, // unsatisfiable: no model at 1 NP call
		{"a. b :- a. :- c.", true},
		{":- a.", true}, // ∅ is the unique minimal model
	} {
		if got := checkHCF(t, tc.db, dbtest.MustParse(tc.db)); got != tc.hcf {
			t.Errorf("%q: head-cycle-free %v, want %v", tc.db, got, tc.hcf)
		}
	}
}

// TestHCFSameSetAsGeneric: on head-cycle-free databases the iterator
// yields the set IterateMinimalModels yields, in its own order.
func TestHCFSameSetAsGeneric(t *testing.T) {
	for i, d := range streamShapeDBs() {
		if !strat.HeadCycleFree(d) {
			t.Fatalf("stream-shape db %d has a head cycle\n%s", i, d)
		}
		collect := func(it ModelIterator) []logic.Interp {
			var out []logic.Interp
			if _, err := Drain(it, func(m logic.Interp) bool {
				out = append(out, m)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		want := collect(NewEngine(d, nil).IterateMinimalModels(0))
		got := collect(IterateMinimalModelsHCF(d, nil, 0))
		if len(got) != len(want) || !refsem.SameModelSet(want, got) {
			t.Fatalf("stream-shape db %d: %d models, generic %d\n%s", i, len(got), len(want), d)
		}
	}
}

// FuzzHCFMinimal decodes a small database (n ≤ 9) and, when it is
// head-cycle-free, checks the iterator's model set and NP calls against
// refsem's minimal models; on a head cycle it must refuse. Byte 0 gives
// n; each further byte is a literal: atom (b & 15) mod n, placed by
// bits 4–5 in the head (0 or 3), the positive body (1) or the negative
// body (2); bit 7 ends the clause. At most 12 clauses.
func FuzzHCFMinimal(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x82, 0x00, 0x91, 0x01, 0x90})       // a | c. a :- b. b :- a.
	f.Add([]byte{2, 0x00, 0x81, 0x00, 0x91, 0x01, 0x90})       // a | b. a :- b. b :- a.
	f.Add([]byte{3, 0x00, 0xa1, 0x01, 0xa0, 0x12, 0x90})       // normal with a denial
	f.Add([]byte{4, 0x00, 0x01, 0x82, 0x10, 0x91, 0x30, 0x83}) // integrity and heads
	f.Add([]byte{9, 0x00, 0x01, 0x82, 0x03, 0x84, 0x15, 0x98, 0x17, 0x26, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%9
		d := db.New()
		for a := 0; a < n; a++ {
			d.Voc.Intern(string(rune('a' + a)))
		}
		var c db.Clause
		flush := func() {
			if len(c.Head)+len(c.PosBody)+len(c.NegBody) > 0 {
				d.Add(c)
			}
			c = db.Clause{}
		}
		for _, b := range data[1:] {
			if len(d.Clauses) == 12 {
				break
			}
			a := logic.Atom(int(b&15) % n)
			switch b >> 4 & 3 {
			case 1:
				c.PosBody = append(c.PosBody, a)
			case 2:
				c.NegBody = append(c.NegBody, a)
			default:
				c.Head = append(c.Head, a)
			}
			if b&0x80 != 0 {
				flush()
			}
		}
		flush()
		checkHCF(t, "fuzz", d)
	})
}
