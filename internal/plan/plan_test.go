package plan

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/session"

	_ "disjunct/internal/semantics/all"
)

func compile(t *testing.T, text string) *session.Compiled {
	t.Helper()
	d, err := db.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return session.NewManager(session.Config{}).InternDB(d)
}

// wideDB builds a positive disjunctive database over n atoms — above
// the brute cap it forces the fresh route.
func wideDB(t *testing.T, n int) *session.Compiled {
	t.Helper()
	var b strings.Builder
	for i := 0; i+1 < n; i += 2 {
		fmt.Fprintf(&b, "x%d | x%d. ", i, i+1)
	}
	return compile(t, b.String())
}

func TestClassOf(t *testing.T) {
	definite := compile(t, "a. b :- a.")
	disj := compile(t, "a | b.")
	cases := []struct {
		comp *session.Compiled
		sem  string
		kind session.Kind
		want Class
	}{
		{definite, "GCWA", session.KindLiteral, ClassPoly}, // fast path collapses the Πᵖ₂ cell
		{disj, "GCWA", session.KindLiteral, ClassSigma2},   // general fragment, Πᵖ₂ cell
		{disj, "GCWA", session.KindModel, ClassPoly},       // positive-existence fast path
		{disj, "CWA", session.KindLiteral, ClassNP},        // coNP cell
		{disj, "DDR", session.KindLiteral, ClassNP},
		{disj, "DDR", session.KindModel, ClassPoly},      // P existence cell
		{disj, "DSM", session.KindModel, ClassPoly},      // Σᵖ₂ cell, but positive-existence fast path applies
		{disj, "PDSM", session.KindModel, ClassPoly},     // positive-existence fast path, as for DSM
		{disj, "PDSM", session.KindLiteral, ClassSigma2}, // no fast path: the Πᵖ₂ cell stands
	}
	for _, c := range cases {
		if got := ClassOf(c.comp, c.sem, c.kind); got != c.want {
			t.Errorf("ClassOf(%q, %s, %v) = %v, want %v", c.comp.D.String(), c.sem, c.kind, got, c.want)
		}
	}
	if got := ClassOf(disj, "NO-SUCH-SEMANTICS", session.KindLiteral); got != ClassSigma2 {
		t.Errorf("unknown semantics classed %v, want worst-case %v", got, ClassSigma2)
	}
}

func TestDecideLadder(t *testing.T) {
	definite := compile(t, "a. b :- a.")
	disj := compile(t, "a | b.")
	wide := wideDB(t, 20)

	p := New(Config{})
	if d := p.Decide(definite, "GCWA", session.KindLiteral); d.Proc != ProcFast {
		t.Errorf("definite GCWA literal routed %v, want fast", d.Proc)
	}
	if d := p.Decide(disj, "DDR", session.KindModel); d.Proc != ProcFast {
		t.Errorf("positive DDR existence routed %v, want fast", d.Proc)
	}
	// A polynomial cell without a fast path (DDR existence once a denial
	// disables the positive-existence shortcut) goes fresh: the engine
	// answers it without search, no warm state needed.
	denial := compile(t, "a | b. :- a, b.")
	if d := p.Decide(denial, "DDR", session.KindModel); d.Proc != ProcFresh || d.Class != ClassPoly {
		t.Errorf("DDR existence with IC routed %v class %v, want fresh/poly", d.Proc, d.Class)
	}
	if d := p.Decide(disj, "GCWA", session.KindLiteral); d.Proc != ProcWarm {
		t.Errorf("disjunctive GCWA literal routed %v, want warm", d.Proc)
	}
	if d := p.Decide(wide, "DSM", session.KindLiteral); d.Proc != ProcFresh {
		t.Errorf("20-atom DSM literal routed %v, want fresh (above brute cap)", d.Proc)
	}
	if d := p.Decide(disj, "CWA", session.KindLiteral); d.Proc != ProcFresh {
		t.Errorf("CWA literal routed %v, want fresh (no brute reference)", d.Proc)
	}

	// The brute/fresh boundary on a tiny Σ₂ᵖ query: cold goes fresh; a
	// cheap or boundary calibrated estimate (below 2×ExpensiveNP) goes
	// fresh; only a clearly-expensive one goes brute.
	d := p.Decide(disj, "DSM", session.KindLiteral)
	if d.Proc != ProcFresh || d.HaveEst {
		t.Fatalf("cold tiny DSM literal routed %v (haveEst=%v), want fresh cold", d.Proc, d.HaveEst)
	}
	p.Observe(disj.Raw, "DSM", Cost{NPCalls: 2})
	if d := p.Decide(disj, "DSM", session.KindLiteral); d.Proc != ProcFresh || !d.HaveEst || d.EstNP != 2 {
		t.Errorf("cheap-estimate DSM routed %v (est %d), want fresh", d.Proc, d.EstNP)
	}
	for _, np := range []int64{6, 8, 15} { // ExpensiveNP/2 < est < 2×ExpensiveNP
		p2 := New(Config{})
		p2.Observe(disj.Raw, "DSM", Cost{NPCalls: np})
		if d := p2.Decide(disj, "DSM", session.KindLiteral); d.Proc != ProcFresh || d.EstNP != np {
			t.Errorf("boundary-estimate DSM (est %d) routed %v, want fresh", d.EstNP, d.Proc)
		}
	}
	for _, np := range []int64{16, 40} { // est ≥ 2×ExpensiveNP
		p3 := New(Config{})
		p3.Observe(disj.Raw, "DSM", Cost{NPCalls: np})
		if d := p3.Decide(disj, "DSM", session.KindLiteral); d.Proc != ProcBrute {
			t.Errorf("expensive-estimate DSM (est %d) routed %v, want brute", np, d.Proc)
		}
	}

	// Above the default BruteMaxAtoms (8) no estimate routes brute.
	nine := compile(t, "a | b. c | d. e | f. g | h. i | a.")
	if nine.N != 9 {
		t.Fatalf("nine-atom instance has %d atoms", nine.N)
	}
	p4 := New(Config{})
	if d := p4.Decide(nine, "DSM", session.KindLiteral); d.Proc != ProcFresh {
		t.Errorf("cold 9-atom DSM routed %v, want fresh", d.Proc)
	}
	for _, np := range []int64{6, 16, 10_000} {
		p4.Observe(nine.Raw, "DSM", Cost{NPCalls: np})
		if d := p4.Decide(nine, "DSM", session.KindLiteral); d.Proc == ProcBrute {
			t.Errorf("9-atom DSM with estimate %d routed brute", d.EstNP)
		}
	}

	st := p.Stats()
	if st["decisions"] == 0 || st["routed_fast"] == 0 || st["routed_warm"] == 0 ||
		st["routed_fresh"] == 0 {
		t.Errorf("routing counters not maintained: %v", st)
	}
}

func TestShouldShed(t *testing.T) {
	disj := compile(t, "a | b.")
	definite := compile(t, "a. b :- a.")
	p := New(Config{})

	cold := p.Decide(disj, "DSM", session.KindLiteral) // Σ₂ᵖ, cold, fresh
	if p.ShouldShed(cold, 3, 8) {
		t.Error("shed below the occupancy threshold")
	}
	if !p.ShouldShed(cold, 4, 8) {
		t.Error("cold Σ₂ᵖ query not shed at 50% occupancy")
	}
	if p.ShouldShed(cold, 4, 0) {
		t.Error("shed with a zero queue bound")
	}
	if fast := p.Decide(definite, "GCWA", session.KindLiteral); p.ShouldShed(fast, 8, 8) {
		t.Error("fast-path query shed under full queue")
	}
	if np := p.Decide(disj, "DDR", session.KindLiteral); p.ShouldShed(np, 8, 8) {
		t.Error("NP-class query shed (only the Σ₂ᵖ tier sheds)")
	}

	// A calibrated-cheap estimate exempts the key; a calibrated-expensive
	// one keeps it shed-first.
	p.Observe(disj.Raw, "DSM", Cost{NPCalls: 2})
	if d := p.Decide(disj, "DSM", session.KindLiteral); p.ShouldShed(d, 8, 8) {
		t.Error("calibrated-cheap Σ₂ᵖ query shed")
	}
	// A calibrated-expensive key sheds only where brute can't rescue it:
	// on a wide instance (above the brute cap) the expensive Σ₂ᵖ query
	// is the first to go.
	wide := wideDB(t, 20)
	p4 := New(Config{})
	p4.Observe(wide.Raw, "DSM", Cost{NPCalls: 100})
	if d := p4.Decide(wide, "DSM", session.KindLiteral); d.Proc != ProcFresh || !p4.ShouldShed(d, 8, 8) {
		t.Errorf("calibrated-expensive wide Σ₂ᵖ query (proc %v) not shed under overload", d.Proc)
	}

	// On a tiny instance the same expensive estimate routes brute
	// instead — and brute-routed queries never shed: answering is
	// cheaper than queuing.
	p4.Observe(disj.Raw, "DSM", Cost{NPCalls: 100})
	if d := p4.Decide(disj, "DSM", session.KindLiteral); d.Proc != ProcBrute || p4.ShouldShed(d, 8, 8) {
		t.Errorf("brute-routed query (proc %v) shed under overload", d.Proc)
	}
}

// TestEstimatorDeterminism pins the commutative-sums design: any
// interleaving of the same multiset of observations must produce the
// identical estimate. Under -race this also proves the locking.
func TestEstimatorDeterminism(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "k3"}
	type obs struct {
		key string
		c   Cost
	}
	var all []obs
	for i := 0; i < 800; i++ {
		all = append(all, obs{keys[i%len(keys)], Cost{NPCalls: int64(i % 17)}})
	}

	seq := newEstimator()
	for _, o := range all {
		seq.observe(o.key, "DSM", o.c)
	}

	conc := newEstimator()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				conc.observe(all[i].key, "DSM", all[i].c)
			}
		}(w)
	}
	wg.Wait()

	for _, k := range keys {
		want, ok1 := seq.estimate(k, "DSM")
		got, ok2 := conc.estimate(k, "DSM")
		if !ok1 || !ok2 || want != got {
			t.Errorf("key %s: sequential %+v (ok=%v) vs concurrent %+v (ok=%v)", k, want, ok1, got, ok2)
		}
	}
	if seq.observations.Load() != conc.observations.Load() {
		t.Errorf("observation counts diverge: %d vs %d", seq.observations.Load(), conc.observations.Load())
	}
}

// TestEstimatorRotationKeepsTouchedKeys pins the two-generation bound:
// a key touched after a rotation moves back into the current
// generation and survives the next rotation, an untouched key of the
// dropped generation is forgotten, and the estimator never holds more
// than two generations of keys.
func TestEstimatorRotationKeepsTouchedKeys(t *testing.T) {
	e := newEstimator()
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < estimatorGen+1; i++ { // the last one rotates
		e.observe(key(i), "DSM", Cost{NPCalls: int64(i)})
	}
	if _, ok := e.estimate(key(0), "DSM"); !ok { // hit in old: promoted
		t.Fatal("key 0 lost by the first rotation")
	}
	for i := estimatorGen + 1; i < 2*estimatorGen; i++ { // fills cur, rotates once more
		e.observe(key(i), "DSM", Cost{NPCalls: int64(i)})
	}
	if got, ok := e.estimate(key(0), "DSM"); !ok || got.count != 1 || got.sumNP != 0 {
		t.Errorf("touched key 0: %+v ok=%v, want its one observation", got, ok)
	}
	if _, ok := e.estimate(key(1), "DSM"); ok {
		t.Error("untouched key 1 survived two rotations")
	}
	if n := e.len(); n > 2*estimatorGen {
		t.Errorf("estimator holds %d keys, bound %d", n, 2*estimatorGen)
	}
}

// TestEstimateEntriesMatchesExport: the /healthz entry count matches
// the keys the two generations hold after k distinct observations — k
// up to one full generation, then one full old generation plus the
// current one's ((k-1) mod estimatorGen)+1 — and stays bounded across
// rotations.
func TestEstimateEntriesMatchesExport(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 2*estimatorGen+100; i++ {
		p.Observe(fmt.Sprintf("db%d", i), "PWS", Cost{NPCalls: 1})
		if k := i + 1; k%4096 == 0 || k == 2*estimatorGen+100 {
			want := int64((k-1)%estimatorGen + 1)
			if k > estimatorGen {
				want += estimatorGen
			}
			entries := p.Stats()["estimate_entries"]
			if entries != want || entries > 2*estimatorGen {
				t.Fatalf("after %d keys: estimate_entries %d, want %d, bound %d", k, entries, want, 2*estimatorGen)
			}
		}
	}
}
