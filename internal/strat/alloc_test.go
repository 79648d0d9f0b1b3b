//go:build !race

package strat

import "testing"

// TestSupportAllocs bounds the shifted encoding of a 20-atom positive
// database: a warm call takes its graph and working arrays from the
// pool and writes straight into the sink, allocating nothing. (-race
// builds are excluded: their sync.Pool drops a random share of items.)
func TestSupportAllocs(t *testing.T) {
	d := chain20()
	if !HeadCycleFree(d) {
		t.Fatal("chain20 must be head-cycle-free")
	}
	var k countSink
	allocs := testing.AllocsPerRun(200, func() {
		Support(d, d.N(), true, nil, &k)
	})
	if allocs > 1 {
		t.Fatalf("Support allocates %.1f times per call, want at most 1", allocs)
	}
	if hcf := testing.AllocsPerRun(200, func() { HeadCycleFree(d) }); hcf > 1 {
		t.Fatalf("HeadCycleFree allocates %.1f times per call, want at most 1", hcf)
	}
}
