package strat

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
)

func TestHeadCycleFree(t *testing.T) {
	for _, tc := range []struct {
		db   string
		want bool
	}{
		{"a | b.", true},
		{"a | b. :- a, b.", true},
		{"a | b. a :- b. b :- a.", false},
		{"a | c. a :- b. b :- a.", true}, // a cycle, but through one head atom only
		{"a | b :- c. c :- a.", true},
		{"a | b :- c. c :- a. c :- b.", false},
		{"a | b :- a.", true}, // a self-loop is a one-atom component
		{"a :- not b. b :- a.", true},
		// a ← b ∧ ¬c is read as a ∨ c ← b, and a, b, c share a component.
		{"a :- b, not c. c :- a. b :- c.", false},
		{"a :- not a.", true},
	} {
		if got := HeadCycleFree(dbtest.MustParse(tc.db)); got != tc.want {
			t.Errorf("HeadCycleFree(%q) = %v, want %v", tc.db, got, tc.want)
		}
	}
}

// TestComponentsAreMutualReachability checks Components against the
// transitive closure of the head-shifted positive dependency graph,
// and that the components come in reverse topological order.
func TestComponentsAreMutualReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(10)
		d := gen.Random(rng, gen.Normal(n, 1+rng.Intn(2*n)))
		reach := make([][]bool, n)
		for a := range reach {
			reach[a] = make([]bool, n)
			reach[a][a] = true
		}
		for _, c := range d.Clauses {
			for _, h := range append(append([]logic.Atom{}, c.Head...), c.NegBody...) {
				for _, b := range c.PosBody {
					reach[h][b] = true
				}
			}
		}
		for k := 0; k < n; k++ {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					reach[a][b] = reach[a][b] || reach[a][k] && reach[k][b]
				}
			}
		}
		comp, size := Components(d)
		count := make([]int, len(size))
		for a := 0; a < n; a++ {
			count[comp[a]]++
			for b := 0; b < n; b++ {
				if same := reach[a][b] && reach[b][a]; same != (comp[a] == comp[b]) {
					t.Fatalf("atoms %d and %d: mutually reachable %v, components %d and %d\n%s", a, b, same, comp[a], comp[b], d)
				}
				if reach[a][b] && comp[a] < comp[b] {
					t.Fatalf("edge path %d → %d climbs from component %d to %d\n%s", a, b, comp[a], comp[b], d)
				}
			}
		}
		for ci, k := range count {
			if k != size[ci] {
				t.Fatalf("component %d has %d atoms, size says %d\n%s", ci, k, size[ci], d)
			}
		}
	}
}

// TestSupportRefusesHeadCycle: the shifted encoding writes nothing for
// a database with a head cycle; the PWS encoding does not ask.
func TestSupportRefusesHeadCycle(t *testing.T) {
	d := dbtest.MustParse("a | b. a :- b. b :- a.")
	var k countSink
	if next, ok := Support(d, d.N(), true, nil, &k); ok || next != d.N() || k != 0 {
		t.Fatalf("shifted Support on a head cycle = (%d, %v) after %d clauses", next, ok, k)
	}
	if _, ok := Support(d, d.N(), false, nil, &k); !ok || k == 0 {
		t.Fatalf("unshifted Support = %v after %d clauses", ok, k)
	}
}

// countSink counts the clauses it receives.
type countSink int

func (k *countSink) Clause(logic.Clause) { *k++ }

// chain20 is a 20-atom positive database with a positive cycle through
// every atom and a disjunctive fact, head-cycle-free.
func chain20() *db.DB {
	d := db.New()
	for a := 0; a < 20; a++ {
		d.Voc.Intern(string(rune('a'+a%26)) + string(rune('0'+a/26)))
	}
	for a := 0; a < 20; a++ {
		d.Add(db.Clause{Head: []logic.Atom{logic.Atom(a)}, PosBody: []logic.Atom{logic.Atom((a + 1) % 20)}})
	}
	d.Add(db.Clause{Head: []logic.Atom{0}})
	return d
}

// TestSupportConcurrent: the pooled encoders serve goroutines at once,
// and each gets the clauses a serial call writes.
func TestSupportConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var dbs []*db.DB
	for i := 0; i < 16; i++ {
		n := 2 + rng.Intn(10)
		dbs = append(dbs, gen.Random(rng, gen.Normal(n, 1+rng.Intn(2*n))))
	}
	want := make([]cnfSink, len(dbs))
	for i, d := range dbs {
		Support(d, d.N(), HeadCycleFree(d), nil, &want[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, d := range dbs {
					var got cnfSink
					Support(d, d.N(), HeadCycleFree(d), nil, &got)
					if !slices.EqualFunc(got, want[i], slices.Equal) {
						t.Errorf("db %d: concurrent encoding differs from the serial one", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// cnfSink keeps copies of the clauses it receives.
type cnfSink []logic.Clause

func (k *cnfSink) Clause(c logic.Clause) { *k = append(*k, slices.Clone(c)) }
