package models

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"disjunct/internal/bitset"
	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// keySet collects the Key of every yielded interpretation.
func keySet(yields []logic.Interp) map[string]bool {
	out := make(map[string]bool, len(yields))
	for _, m := range yields {
		out[m.Key()] = true
	}
	return out
}

func randomDBs(seed int64, count int) []*db.DB {
	rng := rand.New(rand.NewSource(seed))
	var dbs []*db.DB
	for i := 0; i < count; i++ {
		switch i % 3 {
		case 0:
			dbs = append(dbs, gen.Random(rng, gen.Positive(6+rng.Intn(6), 10+rng.Intn(10))))
		case 1:
			dbs = append(dbs, gen.Random(rng, gen.WithIntegrity(6+rng.Intn(6), 10+rng.Intn(10))))
		default:
			dbs = append(dbs, gen.Random(rng, gen.Normal(5+rng.Intn(5), 8+rng.Intn(8))))
		}
	}
	return dbs
}

func TestMinimalModelsParMatchesSerial(t *testing.T) {
	for i, d := range randomDBs(7, 30) {
		serial := keySet(collectMinimal(NewEngine(d, nil)))
		for _, opt := range []ParOptions{{Workers: 1}, {Workers: 4}, {Workers: 0}} {
			got := keySet(collect(NewEngine(d, nil).IterateMinimalModelsPar(0, opt)))
			if len(got) != len(serial) {
				t.Fatalf("db %d opt %+v: %d minimal models, serial %d", i, opt, len(got), len(serial))
			}
			for k := range serial {
				if !got[k] {
					t.Fatalf("db %d opt %+v: serial minimal model %s missing from parallel set", i, opt, k)
				}
			}
		}
	}
}

// TestMinimalModelsParCountDeterministic asserts the complexity-shape
// invariant: with no limit, the NP-call total of the parallel
// enumerator does not depend on the worker count.
func TestMinimalModelsParCountDeterministic(t *testing.T) {
	for i, d := range randomDBs(11, 20) {
		var want oracle.Counters
		for wi, workers := range []int{1, 2, 4, 8} {
			o := oracle.NewNP()
			collect(NewEngine(d, o).IterateMinimalModelsPar(0, ParOptions{Workers: workers}))
			got := o.Counters()
			got.SATConfl = 0 // conflicts are a solver statistic, not part of the call-count shape
			if wi == 0 {
				want = got
			} else if got != want {
				t.Fatalf("db %d: workers=%d counters %+v, workers=1 %+v", i, workers, got, want)
			}
		}
	}
}

// pqKey projects an interpretation onto the P∪Q atoms — the signature
// identity the PZ enumerators guarantee one representative of.
func pqKey(m logic.Interp, part Partition, n int) string {
	pq := bitset.New(n)
	pq.UnionWith(part.P)
	pq.UnionWith(part.Q)
	proj := m.True.Clone()
	proj.IntersectWith(pq)
	return proj.Key()
}

func TestMinimalModelsPZParSignaturesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i, d := range randomDBs(5, 20) {
		n := d.N()
		var p, z []logic.Atom
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				p = append(p, logic.Atom(v))
			case 1:
				z = append(z, logic.Atom(v))
			}
		}
		part := NewPartition(n, p, z)

		serial := map[string]bool{}
		for _, m := range collect(NewEngine(d, nil).IterateMinimalModelsPZ(part, 0)) {
			serial[pqKey(m, part, n)] = true
		}
		for _, opt := range []ParOptions{{Workers: 1}, {Workers: 4}} {
			got := map[string]bool{}
			for _, m := range collect(NewEngine(d, nil).IterateMinimalModelsPZPar(part, 0, opt)) {
				got[pqKey(m, part, n)] = true
			}
			if len(got) != len(serial) {
				t.Fatalf("db %d opt %+v: %d signatures, serial %d", i, opt, len(got), len(serial))
			}
			for k := range serial {
				if !got[k] {
					t.Fatalf("db %d opt %+v: signature %q missing", i, opt, k)
				}
			}
		}
	}
}

func TestEnumerateModelsParMatchesSerial(t *testing.T) {
	for i, d := range randomDBs(31, 20) {
		serial := collect(NewEngine(d, nil).IterateModels(0))
		for _, workers := range []int{1, 4, 0} {
			got := collect(NewEngine(d, nil).IterateModelsPar(0, ParOptions{Workers: workers}))
			sk, gk := keySet(serial), keySet(got)
			if len(got) != len(serial) || len(gk) != len(sk) {
				t.Fatalf("db %d workers=%d: %d models (%d distinct), serial %d (%d)",
					i, workers, len(got), len(gk), len(serial), len(sk))
			}
			for k := range sk {
				if !gk[k] {
					t.Fatalf("db %d workers=%d: model %q missing", i, workers, k)
				}
			}
		}
	}
}

func TestEnumerateModelsParCountDeterministic(t *testing.T) {
	for i, d := range randomDBs(43, 10) {
		var want int64
		for wi, workers := range []int{1, 3, 8} {
			o := oracle.NewNP()
			collect(NewEngine(d, o).IterateModelsPar(0, ParOptions{Workers: workers}))
			if np := o.Counters().NPCalls; wi == 0 {
				want = np
			} else if np != want {
				t.Fatalf("db %d: workers=%d NP=%d, workers=1 NP=%d", i, workers, np, want)
			}
		}
	}
}

func TestParallelLimitAndEarlyStop(t *testing.T) {
	d := dbtest.MustParse("a | b. c | d. e | f.")
	count, err := Drain(NewEngine(d, nil).IterateMinimalModelsPar(3, ParOptions{Workers: 4}),
		func(logic.Interp) bool { return true })
	if err != nil || count != 3 {
		t.Fatalf("limit=3 yielded %d (err %v)", count, err)
	}
	seen := 0
	Drain(NewEngine(d, nil).IterateModelsPar(0, ParOptions{Workers: 4}), func(logic.Interp) bool {
		seen++
		return seen < 2 // abort from the callback
	})
	if seen != 2 {
		t.Fatalf("early stop saw %d yields, want 2", seen)
	}
}

// TestParallelYieldsAreMinimalModels sanity-checks every parallel
// yield: a model of the database with no strictly smaller model.
func TestParallelYieldsAreMinimalModels(t *testing.T) {
	for i, d := range randomDBs(59, 15) {
		check := NewEngine(d, oracle.NewNP())
		var bad []string
		for _, m := range collect(NewEngine(d, nil).IterateMinimalModelsPar(0, ParOptions{Workers: 4})) {
			if !d.Sat(m) {
				bad = append(bad, fmt.Sprintf("non-model %s", m.Key()))
			} else if !check.IsMinimal(m) {
				bad = append(bad, fmt.Sprintf("non-minimal %s", m.Key()))
			}
		}
		sort.Strings(bad)
		if len(bad) > 0 {
			t.Fatalf("db %d: %v", i, bad)
		}
	}
}
