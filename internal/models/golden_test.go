package models

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// goldenDigests pins the enumerators byte for byte: each digest hashes,
// over every goldenDBs database, what the enumerator yields and what it
// charges the oracle. Serial digests cover the ordered model-key
// sequence at limits 0, 1 and 3 plus NPCalls, Sigma2Calls and SATConfl;
// worker-pool digests cover the sorted model set (the sorted
// (P,Q)-signature set for PZ) plus NPCalls, at Workers 1 and 4. A
// change to the queries, their order or their charging moves a digest.
var goldenDigests = map[string]string{
	"IterateModels":               "8881c37e9bef6e5e880006b405295962e8c9f1bf5385041e9c25ace0010c31ca",
	"IterateMinimalModels":        "7e9226c5b2e06a0d42437b3023b2b87e146fd0621868a395201b8a1840a287d1",
	"IterateMinimalModelsPZ":      "e1da051668c77e47241831cb147a53cdb96b229d84b709da89a1d8e2d3df22fb",
	"IterateModelsPar/1":          "19956a232987d67a97f6a8c9c6c8d5771a79be1b4b3aef67ec0035349df63265",
	"IterateModelsPar/4":          "19956a232987d67a97f6a8c9c6c8d5771a79be1b4b3aef67ec0035349df63265",
	"IterateMinimalModelsPar/1":   "42077e100b9f731b8f728aa6f705ff2906049fd2b89f6ab2767ee63355db2973",
	"IterateMinimalModelsPar/4":   "42077e100b9f731b8f728aa6f705ff2906049fd2b89f6ab2767ee63355db2973",
	"IterateMinimalModelsPZPar/1": "a91c976e517fc8c71efc9c3f0fd9789f0e9b2f627f25f3783d6b880d591872f4",
	"IterateMinimalModelsPZPar/4": "a91c976e517fc8c71efc9c3f0fd9789f0e9b2f627f25f3783d6b880d591872f4",
}

// goldenDB is one seeded database with the random partition its PZ
// enumerations use.
type goldenDB struct {
	d    *db.DB
	part Partition
}

// goldenDBs returns 360 seeded databases: positive, with integrity
// clauses and normal, n = 2..9, five of each per seed 101, 202, 303.
func goldenDBs() []goldenDB {
	var out []goldenDB
	for _, seed := range []int64{101, 202, 303} {
		rng := rand.New(rand.NewSource(seed))
		for n := 2; n <= 9; n++ {
			for _, family := range []func(int, int) gen.Config{gen.Positive, gen.WithIntegrity, gen.Normal} {
				for rep := 0; rep < 5; rep++ {
					d := gen.Random(rng, family(n, 1+rng.Intn(2*n)))
					p, q := randomPartition(rng, d.N())
					out = append(out, goldenDB{d: d, part: partitionOf(d.N(), p, q)})
				}
			}
		}
	}
	return out
}

// digestSerial hashes the ordered keys an iterator yields and the
// oracle's full counters.
func digestSerial(h hash.Hash, it ModelIterator, o *oracle.NP) {
	Drain(it, func(m logic.Interp) bool {
		fmt.Fprintf(h, "%x;", m.Key())
		return true
	})
	c := o.Counters()
	fmt.Fprintf(h, "|np=%d s2=%d confl=%d\n", c.NPCalls, c.Sigma2Calls, c.SATConfl)
}

// digestSet hashes the sorted keys of what an iterator yields, each
// projected by key, and the oracle's NP calls.
func digestSet(h hash.Hash, it ModelIterator, o *oracle.NP, key func(logic.Interp) string) {
	seen := map[string]bool{}
	Drain(it, func(m logic.Interp) bool {
		seen[key(m)] = true
		return true
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%x;", k)
	}
	fmt.Fprintf(h, "|np=%d\n", o.Counters().NPCalls)
}

// computeGoldenDigests runs every enumerator variant over goldenDBs.
func computeGoldenDigests() map[string]string {
	dbs := goldenDBs()
	out := map[string]string{}
	serial := map[string]func(*Engine, Partition, int) ModelIterator{
		"IterateModels":          func(e *Engine, _ Partition, l int) ModelIterator { return e.IterateModels(l) },
		"IterateMinimalModels":   func(e *Engine, _ Partition, l int) ModelIterator { return e.IterateMinimalModels(l) },
		"IterateMinimalModelsPZ": func(e *Engine, p Partition, l int) ModelIterator { return e.IterateMinimalModelsPZ(p, l) },
	}
	for name, mk := range serial {
		h := sha256.New()
		for _, g := range dbs {
			for _, limit := range []int{0, 1, 3} {
				o := oracle.NewNP()
				digestSerial(h, mk(NewEngine(g.d, o), g.part, limit), o)
			}
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	pool := map[string]func(*Engine, Partition, ParOptions) ModelIterator{
		"IterateModelsPar":        func(e *Engine, _ Partition, opt ParOptions) ModelIterator { return e.IterateModelsPar(0, opt) },
		"IterateMinimalModelsPar": func(e *Engine, _ Partition, opt ParOptions) ModelIterator { return e.IterateMinimalModelsPar(0, opt) },
		"IterateMinimalModelsPZPar": func(e *Engine, p Partition, opt ParOptions) ModelIterator {
			return e.IterateMinimalModelsPZPar(p, 0, opt)
		},
	}
	for name, mk := range pool {
		for _, workers := range []int{1, 4} {
			h := sha256.New()
			for _, g := range dbs {
				key := func(m logic.Interp) string { return m.Key() }
				if name == "IterateMinimalModelsPZPar" {
					part, n := g.part, g.d.N()
					key = func(m logic.Interp) string { return pqKey(m, part, n) }
				}
				o := oracle.NewNP()
				digestSet(h, mk(NewEngine(g.d, o), g.part, ParOptions{Workers: workers}), o, key)
			}
			out[fmt.Sprintf("%s/%d", name, workers)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return out
}

// TestEnumerationGoldenDigest checks every enumerator against the
// digests recorded before the push enumerators were deleted: the
// iterators must issue the same queries, in the same order, with the
// same charging.
func TestEnumerationGoldenDigest(t *testing.T) {
	got := computeGoldenDigests()
	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("computed %d digests, pinned %d", len(got), len(goldenDigests))
	}
}
