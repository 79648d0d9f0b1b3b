package session_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/semtest"
	"disjunct/internal/session"

	_ "disjunct/internal/semantics/all"
)

// genDefinite builds a random definite program (one head atom, no
// negation, no integrity clauses).
func genDefinite(rng *rand.Rand, atoms, clauses int) *db.DB {
	d := db.New()
	var as []logic.Atom
	for i := 0; i < atoms; i++ {
		as = append(as, d.Voc.Intern(string(rune('a'+i))))
	}
	for i := 0; i < clauses; i++ {
		head := []logic.Atom{as[rng.Intn(atoms)]}
		var body []logic.Atom
		for _, a := range as {
			if rng.Intn(4) == 0 && a != head[0] {
				body = append(body, a)
			}
		}
		d.AddRule(head, body, nil)
	}
	return d
}

// genHorn adds random denials to a definite program.
func genHorn(rng *rand.Rand, atoms, clauses int) *db.DB {
	d := genDefinite(rng, atoms, clauses)
	denials := 1 + rng.Intn(2)
	for i := 0; i < denials; i++ {
		var body []logic.Atom
		for v := 0; v < atoms; v++ {
			if rng.Intn(3) == 0 {
				body = append(body, logic.Atom(v))
			}
		}
		if len(body) == 0 {
			body = append(body, logic.Atom(rng.Intn(atoms)))
		}
		d.AddRule(nil, body, nil)
	}
	return d
}

// mixedDB cycles fragment-targeted and general databases so every
// route of the session layer is exercised.
func mixedDB(iter int, rng *rand.Rand) *db.DB {
	n := 3 + rng.Intn(3)
	switch iter % 5 {
	case 0:
		return genDefinite(rng, n, 1+rng.Intn(5))
	case 1:
		return genHorn(rng, n, 1+rng.Intn(4))
	case 2:
		return gen.RandomStratified(rng, n, 1+rng.Intn(5), 2)
	case 3:
		return gen.Random(rng, gen.Positive(n, 1+rng.Intn(5)))
	default:
		return gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(5)))
	}
}

// Every registered semantics must agree with its fresh engine on every
// query the session layer handles, with the route coverage each name
// is entitled to.
func TestSessionCrossCheckAllSemantics(t *testing.T) {
	warm := map[string]bool{"GCWA": true, "CCWA": true, "EGCWA": true, "ECWA": true, "CIRC": true}
	fastCapable := map[string]bool{
		"GCWA": true, "CCWA": true, "EGCWA": true, "ECWA": true, "CIRC": true,
		"CWA": true, "DSM": true, "DDR": true, "WGCWA": true,
		"PWS": true, "PMS": true, "PERF": true, "ICWA": true, "PDSM": true,
	}
	for _, name := range core.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			stats := semtest.CrossCheckSession(t, name, 25, mixedDB)
			if stats.Queries == 0 {
				t.Fatalf("no queries issued")
			}
			if fastCapable[name] && stats.Fast == 0 {
				t.Fatalf("%s: no fast-path coverage over the fragment mix (stats %+v)", name, stats)
			}
			if warm[name] && stats.Warm == 0 {
				t.Fatalf("%s: no warm-session coverage (stats %+v)", name, stats)
			}
			if !warm[name] && stats.Handled != stats.Fast {
				t.Fatalf("%s: handled outside the fast path without a warm engine (stats %+v)", name, stats)
			}
		})
	}
}

// The manager must be safe for concurrent use: many goroutines, same
// hot databases, all routes.
func TestSessionManagerConcurrent(t *testing.T) {
	mgr := session.NewManager(session.Config{MaxSessions: 8})
	rng := rand.New(rand.NewSource(99))
	var dbs []*db.DB
	for i := 0; i < 4; i++ {
		dbs = append(dbs, mixedDB(i, rng))
	}
	type verdictKey struct {
		db, sem, q string
	}
	var mu sync.Mutex
	verdicts := map[verdictKey]bool{}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				d := dbs[rng.Intn(len(dbs))]
				comp := mgr.InternDB(d)
				sem := []string{"GCWA", "ECWA", "DSM", "PWS"}[rng.Intn(4)]
				lit := logic.PosLit(logic.Atom(rng.Intn(d.N())))
				req := session.Request{Sem: sem, Kind: session.KindLiteral, Lit: lit, QueryText: d.Voc.LitString(lit)}
				res, handled := mgr.Query(ctx, comp, req)
				if !handled || res.Err != nil {
					continue
				}
				k := verdictKey{db: d.String(), sem: sem, q: req.QueryText}
				mu.Lock()
				if prev, ok := verdicts[k]; ok && prev != res.Holds {
					mu.Unlock()
					t.Errorf("verdict flapped for %+v", k)
					return
				}
				verdicts[k] = res.Holds
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := mgr.Stats()
	if st.ActiveCheckouts != 0 {
		t.Fatalf("checkout leak: %d sessions still checked out", st.ActiveCheckouts)
	}
}

// Artifact interning must hit on repeat text, account bytes, and evict
// under a tiny budget.
func TestArtifactCacheEviction(t *testing.T) {
	mgr := session.NewManager(session.Config{MaxBytes: 1})
	rng := rand.New(rand.NewSource(7))
	var comps []*session.Compiled
	for i := 0; i < 4; i++ {
		comps = append(comps, mgr.InternDB(genDefinite(rng, 3, 3)))
	}
	st := mgr.Stats()
	if st.CompiledEvictions == 0 {
		t.Fatalf("no evictions under a 1-byte budget: %+v", st)
	}
	if st.CompiledEntries != 1 {
		t.Fatalf("budget keeps one resident artifact, got %d", st.CompiledEntries)
	}
	_ = comps
}

// Fragment classification must match the syntactic definitions.
func TestFragmentClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	if c := session.Compile("", genDefinite(rng, 4, 4)); c.Frag != session.FragDefinite {
		t.Fatalf("definite program classified %v", c.Frag)
	}
	if c := session.Compile("", genHorn(rng, 4, 4)); c.Frag != session.FragHorn {
		t.Fatalf("horn program classified %v", c.Frag)
	}
	sn := gen.RandomStratified(rng, 4, 4, 2)
	c := session.Compile("", sn)
	if sn.HasNegation() && c.Frag != session.FragStratNormal && c.Frag != session.FragDefinite {
		t.Fatalf("stratified normal program classified %v\nDB:\n%s", c.Frag, sn.String())
	}
	gd := gen.Random(rng, gen.WithIntegrity(5, 6))
	if gc := session.Compile("", gd); gd.HasNegation() && gc.Frag == session.FragDefinite {
		t.Fatalf("general database classified definite")
	}
}
