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

// goldenDigests pins the enumerators and the minimality checks byte for
// byte: each digest hashes what the procedure returns and what it
// charges the oracle. Serial digests cover the ordered model-key
// sequence at limits 0, 1 and 3 plus NPCalls, Sigma2Calls and SATConfl;
// worker-pool digests cover the sorted model set (the sorted
// (P,Q)-signature set for PZ) plus NPCalls, at Workers 1 and 4. Both
// run over goldenDBs. "StreamShape" is the serial minimal-model
// sequence over streamShapeDBs; the check digests (MinimizePZ,
// IsMinimalPZ, MMEntailsWitness, UniqueMinimalModel) hash each answer
// with its counters over goldenDBs. A change to the queries, their
// order or their charging moves a digest.
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
	"StreamShape":                 "6b8eaca3e5239576df123f4d27584de1a8809421eddbb2fd41fb17b1b8e6b195",
	"MinimizePZ":                  "b22e84d144a5215b2461ae41f85414ecfb5b97c97a592d7b4d24d610eaa9d8c0",
	"IsMinimalPZ":                 "ecc6459ba7175f714e42b82af24e173a89fd303e4f2d4fae16f1853480e5d82d",
	"MMEntailsWitness":            "f8b45adb611fd0ff7a682eb02265bacd4fa8c4cd7381a034af85bc02cf27abb2",
	"UniqueMinimalModel":          "134f78275365244d333f6dc6e938947d6b49d388eea79f1e45e8bec6cf15e54b",
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

// streamShapeDBs returns the shape of the stream-minimal benchmark
// workload: 3-colouring instances of the cycles of length 4..7, and 20
// positive databases of 16..20 atoms, atoms/2 clauses and fact
// probability 0.8 drawn from one fixed seed.
func streamShapeDBs() []*db.DB {
	var out []*db.DB
	for n := 4; n <= 7; n++ {
		out = append(out, gen.ColoringDB(gen.Cycle(n), 3))
	}
	rng := rand.New(rand.NewSource(20260102))
	for i := 0; i < 20; i++ {
		n := 16 + i%5
		cfg := gen.Config{Atoms: n, Clauses: n / 2, MaxHead: 3, MaxBody: 2, FactProb: 0.8}
		for {
			d, err := db.Parse(gen.Random(rng, cfg).String())
			if err == nil && d.N() > 0 {
				out = append(out, d)
				break
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
	h := sha256.New()
	for _, d := range streamShapeDBs() {
		o := oracle.NewNP()
		digestSerial(h, NewEngine(d, o).IterateMinimalModels(0), o)
	}
	out["StreamShape"] = hex.EncodeToString(h.Sum(nil))
	for name, digest := range checkDigests(dbs) {
		out[name] = digest
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

// checkDigests hashes the answers and counters of the single-query
// procedures over dbs. MinimizePZ and IsMinimalPZ start from the first
// three models of each database, under its random partition and under
// full minimisation; MMEntailsWitness asks ¬x for every atom x and one
// disjunction and one conjunction of literals.
func checkDigests(dbs []goldenDB) map[string]string {
	hs := map[string]hash.Hash{}
	for _, name := range []string{"MinimizePZ", "IsMinimalPZ", "MMEntailsWitness", "UniqueMinimalModel"} {
		hs[name] = sha256.New()
	}
	counters := func(h hash.Hash, o *oracle.NP) {
		c := o.Counters()
		fmt.Fprintf(h, "|np=%d s2=%d confl=%d\n", c.NPCalls, c.Sigma2Calls, c.SATConfl)
	}
	for _, g := range dbs {
		n := g.d.N()
		var ms []logic.Interp
		Drain(NewEngine(g.d, nil).IterateModels(3), func(m logic.Interp) bool {
			ms = append(ms, m)
			return true
		})
		for _, part := range []Partition{g.part, FullMin(n)} {
			for _, m := range ms {
				o := oracle.NewNP()
				min := NewEngine(g.d, o).MinimizePZ(m, part)
				fmt.Fprintf(hs["MinimizePZ"], "%x", min.Key())
				counters(hs["MinimizePZ"], o)
				o = oracle.NewNP()
				fmt.Fprintf(hs["IsMinimalPZ"], "%t", NewEngine(g.d, o).IsMinimalPZ(m, part))
				counters(hs["IsMinimalPZ"], o)
			}
		}
		var fs []*logic.Formula
		for v := 0; v < n; v++ {
			fs = append(fs, logic.Not(logic.AtomF(logic.Atom(v))))
		}
		if n >= 2 {
			a, b := logic.AtomF(0), logic.AtomF(logic.Atom(n-1))
			fs = append(fs, logic.Or(a, logic.Not(b)), logic.And(logic.Not(a), b))
		}
		for _, f := range fs {
			o := oracle.NewNP()
			ok, w := NewEngine(g.d, o).MMEntailsWitness(f, g.part)
			fmt.Fprintf(hs["MMEntailsWitness"], "%t %x", ok, optKey(w))
			counters(hs["MMEntailsWitness"], o)
		}
		o := oracle.NewNP()
		ok, min := NewEngine(g.d, o).UniqueMinimalModel()
		fmt.Fprintf(hs["UniqueMinimalModel"], "%t %x", ok, optKey(min))
		counters(hs["UniqueMinimalModel"], o)
	}
	out := map[string]string{}
	for name, h := range hs {
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// optKey is m's key, or "-" for the zero Interp a procedure returns
// when it has no model to report.
func optKey(m logic.Interp) string {
	if m.True == nil {
		return "-"
	}
	return m.Key()
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
