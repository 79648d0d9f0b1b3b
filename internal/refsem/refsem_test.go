package refsem

import (
	"math/rand"
	"testing"

	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/strat"
)

func subsetOf(a, b []logic.Interp) bool {
	keys := map[string]bool{}
	for _, m := range b {
		keys[m.Key()] = true
	}
	for _, m := range a {
		if !keys[m.Key()] {
			return false
		}
	}
	return true
}

func TestMinimalModelsAreModels(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	for i := 0; i < 200; i++ {
		d := gen.Random(rng, gen.WithIntegrity(2+rng.Intn(4), 1+rng.Intn(7)))
		if !subsetOf(MinimalModels(d), Models(d)) {
			t.Fatalf("MM ⊄ M\n%s", d.String())
		}
	}
}

func TestEGCWAInsideGCWA(t *testing.T) {
	// EGCWA(DB) = MM(DB) ⊆ GCWA(DB): every minimal model survives the
	// GCWA closure.
	rng := rand.New(rand.NewSource(232))
	for i := 0; i < 200; i++ {
		d := gen.Random(rng, gen.WithIntegrity(2+rng.Intn(4), 1+rng.Intn(7)))
		if !subsetOf(EGCWA(d), GCWA(d)) {
			t.Fatalf("MM ⊄ GCWA\n%s", d.String())
		}
	}
}

func TestGCWAInsideDDR(t *testing.T) {
	// WGCWA/DDR is weaker than GCWA on positive DDBs without ICs: it
	// negates fewer atoms, so its model set is a superset.
	rng := rand.New(rand.NewSource(233))
	for i := 0; i < 200; i++ {
		d := gen.Random(rng, gen.Positive(2+rng.Intn(4), 1+rng.Intn(7)))
		if !subsetOf(GCWA(d), DDR(d)) {
			t.Fatalf("GCWA ⊄ DDR on positive DB\n%s", d.String())
		}
	}
}

func TestPossibleModelsAreModels(t *testing.T) {
	rng := rand.New(rand.NewSource(234))
	for i := 0; i < 400; i++ {
		cfg := gen.Positive(2+rng.Intn(4), 1+rng.Intn(6))
		if i%2 == 1 {
			cfg = gen.WithIntegrity(cfg.Atoms, cfg.Clauses)
		}
		d := gen.Random(rng, cfg)
		all := Models(d)
		keys := map[string]bool{}
		for _, m := range all {
			keys[m.Key()] = true
		}
		for _, m := range PWS(d) {
			if !keys[m.Key()] {
				t.Fatalf("possible model is not a classical model\n%s", d.String())
			}
		}
	}
}

func TestMinimalModelsArePossible(t *testing.T) {
	// Sakama: every minimal model is a possible model (split with the
	// exact head choices of the minimal model). With integrity clauses
	// it still holds: every subset of a model satisfying a denial
	// satisfies it too, so a minimal model of DB is minimal without
	// the denials and satisfies them.
	rng := rand.New(rand.NewSource(235))
	for i := 0; i < 400; i++ {
		cfg := gen.Positive(2+rng.Intn(4), 1+rng.Intn(6))
		if i%2 == 1 {
			cfg = gen.WithIntegrity(cfg.Atoms, cfg.Clauses)
		}
		d := gen.Random(rng, cfg)
		if !subsetOf(MinimalModels(d), PWS(d)) {
			t.Fatalf("MM ⊄ PWS\n%s", d.String())
		}
	}
}

// TestDSMFromMinimalModelsOfReduct checks DSM against a second
// transcription of its definition, M ∈ MM(DB^M), built on
// MinimalModels: the same models in the same order.
func TestDSMFromMinimalModelsOfReduct(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	for i := 0; i < 300; i++ {
		d := gen.Random(rng, gen.Normal(1+rng.Intn(5), 1+rng.Intn(6)))
		var want []logic.Interp
		for _, m := range allInterps(d.N()) {
			for _, o := range MinimalModels(d.Reduct(m)) {
				if o.Equal(m) {
					want = append(want, m)
					break
				}
			}
		}
		got := DSM(d)
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j].Equal(want[j])
		}
		if !same {
			t.Fatalf("DSM gave %d models, MM of the reduct %d, or a different order\n%s", len(got), len(want), d.String())
		}
	}
}

func TestPerfectAndStableAreMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(236))
	for i := 0; i < 200; i++ {
		d := gen.Random(rng, gen.NormalNoIC(2+rng.Intn(4), 1+rng.Intn(6)))
		mm := MinimalModels(d)
		if !subsetOf(PERF(d), mm) {
			t.Fatalf("PERF ⊄ MM\n%s", d.String())
		}
		if !subsetOf(DSM(d), mm) {
			t.Fatalf("DSM ⊄ MM\n%s", d.String())
		}
	}
}

func TestStratifiedStableEqualsPerfect(t *testing.T) {
	// Przymusinski: on stratified databases the disjunctive stable
	// models coincide with the perfect models.
	rng := rand.New(rand.NewSource(237))
	checked := 0
	for i := 0; i < 200; i++ {
		d := gen.RandomStratified(rng, 2+rng.Intn(4), 1+rng.Intn(6), 1+rng.Intn(3))
		if !SameModelSet(DSM(d), PERF(d)) {
			t.Fatalf("DSM ≠ PERF on stratified DB\nDSM=%d PERF=%d\n%s",
				len(DSM(d)), len(PERF(d)), d.String())
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no stratified DBs checked")
	}
}

func TestStratifiedICWAEqualsPerfect(t *testing.T) {
	// The paper: ICWA was introduced "for capturing PERF under
	// stratified negation" — the model sets coincide on DSDBs.
	rng := rand.New(rand.NewSource(238))
	for i := 0; i < 200; i++ {
		d := gen.RandomStratified(rng, 2+rng.Intn(4), 1+rng.Intn(6), 1+rng.Intn(3))
		icwa, ok := ICWA(d)
		if !ok {
			t.Fatalf("stratified DB rejected")
		}
		if !SameModelSet(icwa, PERF(d)) {
			t.Fatalf("ICWA ≠ PERF on stratified DB\nICWA=%d PERF=%d\n%s",
				len(icwa), len(PERF(d)), d.String())
		}
	}
}

func TestTotalPDSMEqualsDSM(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	for i := 0; i < 150; i++ {
		d := gen.Random(rng, gen.Normal(2+rng.Intn(3), 1+rng.Intn(5)))
		var totals []logic.Interp
		for _, p := range PDSM(d) {
			if p.IsTotal() {
				totals = append(totals, p.Total())
			}
		}
		if !SameModelSet(totals, DSM(d)) {
			t.Fatalf("total PDSM ≠ DSM\n%s", d.String())
		}
	}
}

func TestSameModelSetSemantics(t *testing.T) {
	a := []logic.Interp{logic.InterpOf(2, 0)}
	b := []logic.Interp{logic.InterpOf(2, 0)}
	c := []logic.Interp{logic.InterpOf(2, 1)}
	if !SameModelSet(a, b) || SameModelSet(a, c) || SameModelSet(a, nil) {
		t.Fatalf("SameModelSet broken")
	}
}

func TestAllInterpsCount(t *testing.T) {
	all4, err := AllInterps(4)
	if err != nil {
		t.Fatalf("AllInterps(4): %v", err)
	}
	if got := len(all4); got != 16 {
		t.Fatalf("AllInterps(4) = %d", got)
	}
	part3, err := AllPartials(3)
	if err != nil {
		t.Fatalf("AllPartials(3): %v", err)
	}
	if got := len(part3); got != 27 {
		t.Fatalf("AllPartials(3) = %d", got)
	}
}

func TestPreferableGeneralizesSubset(t *testing.T) {
	d := dbtest.MustParse("a | b.")
	pri := strat.NewPriority(d, nil)
	sub := logic.InterpOf(2, 0)
	sup := logic.InterpOf(2, 0, 1)
	if !Preferable(sub, sup, pri) {
		t.Fatalf("proper subset must be preferable")
	}
	if Preferable(sup, sub, pri) {
		t.Fatalf("superset must not be preferable")
	}
	if Preferable(sub, sub, pri) {
		t.Fatalf("a model is not preferable to itself")
	}
}
