// Command benchgate is the bench-regression gate: it compares a
// freshly generated ddbbench JSON artefact against a committed
// baseline and fails if any audited NP-call total moved. Oracle-call
// counts are the repository's complexity-shape evidence — they are
// deterministic functions of the benchmark instances, so any drift
// means an algorithmic change, not noise. Wall-clock columns are
// reported for context but never gated.
//
// Sections present in the fresh artefact but absent from the baseline
// (e.g. a newly added sweep) are reported and ignored; a case present
// in the baseline but missing from the fresh run is a failure.
//
// Usage:
//
//	benchgate -baseline BENCH_pr1.json -fresh BENCH.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"disjunct/internal/bench"
)

// artefact mirrors the ddbbench -json envelope.
type artefact struct {
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"num_cpu"`
	Scale      string                `json:"scale"`
	Report     *bench.ParallelReport `json:"report"`
}

func main() {
	basePath := flag.String("baseline", "", "committed baseline JSON (required)")
	freshPath := flag.String("fresh", "", "freshly generated JSON (required)")
	flag.Parse()
	if *basePath == "" || *freshPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fatal(err)
	}
	if base.Scale != fresh.Scale {
		fatal(fmt.Errorf("scale mismatch: baseline %q, fresh %q — counts are not comparable", base.Scale, fresh.Scale))
	}

	g := &gate{}
	comparePar(g, base.Report.Parallel, fresh.Report.Parallel)
	comparePool(g, base.Report.Pool, fresh.Report.Pool)
	compareOneShot(g, base.Report.OneShot, fresh.Report.OneShot)
	compareSession(g, base.Report.Session, fresh.Report.Session)
	compareBatch(g, base.Report.Batch, fresh.Report.Batch)
	compareStream(g, base.Report.Stream, fresh.Report.Stream)
	compareStore(g, base.Report.Store, fresh.Report.Store)
	compareCluster(g, base.Report.Cluster, fresh.Report.Cluster)
	comparePlanner(g, base.Report.Planner, fresh.Report.Planner)

	if g.failures > 0 {
		fmt.Printf("benchgate: %d audited counter(s) moved\n", g.failures)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d audited counter(s) unchanged\n", g.checked)
}

type gate struct {
	checked  int
	failures int
}

// eq gates one audited counter.
func (g *gate) eq(section, name, field string, want, got int64) {
	g.checked++
	if want != got {
		g.failures++
		fmt.Printf("  FAIL %s/%s: %s was %d, now %d\n", section, name, field, want, got)
	}
}

func (g *gate) missing(section, name string) {
	g.failures++
	fmt.Printf("  FAIL %s/%s: present in baseline, missing from fresh run\n", section, name)
}

func comparePar(g *gate, base, fresh []bench.ParallelCase) {
	byName := map[string]bench.ParallelCase{}
	for _, c := range fresh {
		byName[c.Name] = c
	}
	for _, b := range base {
		f, ok := byName[b.Name]
		if !ok {
			g.missing("parallel", b.Name)
			continue
		}
		g.eq("parallel", b.Name, "minimal_models", int64(b.Models), int64(f.Models))
		g.eq("parallel", b.Name, "serial_np_calls", b.SerialNP, f.SerialNP)
		g.eq("parallel", b.Name, "par_np_calls", b.ParNP, f.ParNP)
		fmt.Printf("  parallel/%s: serial %s, par1 %s, parN %s (wall-clock, not gated)\n",
			b.Name, ms(b.SerialMS, f.SerialMS), ms(b.Par1MS, f.Par1MS), ms(b.ParNMS, f.ParNMS))
	}
}

func comparePool(g *gate, base, fresh []bench.PoolCase) {
	byName := map[string]bench.PoolCase{}
	for _, c := range fresh {
		byName[c.Name] = c
	}
	for _, b := range base {
		f, ok := byName[b.Name]
		if !ok {
			g.missing("solver_pool", b.Name)
			continue
		}
		g.eq("solver_pool", b.Name, "np_calls", b.NPCalls, f.NPCalls)
	}
}

// compareOneShot gates the one-shot-Sat sweep, the baselines' "cache"
// section (see bench.OneShotCase): the serial workload total and the
// worker-pool enumeration total are pinned.
func compareOneShot(g *gate, base, fresh []bench.OneShotCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  cache: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		return
	}
	type key struct{ name, sem string }
	byKey := map[key]bench.OneShotCase{}
	for _, c := range fresh {
		byKey[key{c.Name, c.Semantics}] = c
	}
	for _, b := range base {
		id := b.Name + "/" + b.Semantics
		f, ok := byKey[key{b.Name, b.Semantics}]
		if !ok {
			g.missing("cache", id)
			continue
		}
		g.eq("cache", id, "np_calls", b.NPCalls, f.NPCalls)
		g.eq("cache", id, "par_np_calls", b.ParNP, f.ParNP)
	}
}

// compareSession gates the warm-session sweep: the fresh-engine NP
// total is pinned to the baseline (the workload is deterministic), the
// fast path must stay at zero NP calls, and the session total must
// never exceed the fresh total. The session total itself is bounded
// rather than pinned — learned-clause retention inside a warm engine
// may legitimately shift the exact count between toolchain versions,
// but never above the fresh-path cost.
func compareSession(g *gate, base, fresh []bench.SessionCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  session: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		return
	}
	type key struct{ name, sem string }
	byKey := map[key]bench.SessionCase{}
	for _, c := range fresh {
		byKey[key{c.Name, c.Semantics}] = c
	}
	for _, b := range base {
		id := b.Name + "/" + b.Semantics
		f, ok := byKey[key{b.Name, b.Semantics}]
		if !ok {
			g.missing("session", id)
			continue
		}
		g.eq("session", id, "fresh_np_calls", b.FreshNP, f.FreshNP)
		g.eq("session", id, "fast_np_calls", 0, f.FastNP)
		g.checked++
		if f.SessionNP > f.FreshNP {
			g.failures++
			fmt.Printf("  FAIL session/%s: session NP total %d exceeds fresh total %d\n", id, f.SessionNP, f.FreshNP)
		}
		fmt.Printf("  session/%s: fresh %s, session %s, %.1fx (wall-clock, not gated)\n",
			id, ms(b.FreshMS, f.FreshMS), ms(b.SessionMS, f.SessionMS), f.Speedup)
	}
}

// compareBatch gates the batch-execution sweep: the sequential NP
// total is pinned to the baseline, the batch total must equal the
// sequential total (identical oracle work is the replay-identity
// contract), and the compile amortization ratio must exceed 1 — the
// one ratio gated despite being wall-clock-derived, because it
// compares N repetitions of one operation against a single repetition
// and only an algorithmic regression (recompiling per query) can drag
// it to 1.
func compareBatch(g *gate, base, fresh []bench.BatchCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  batch: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		for _, f := range fresh {
			auditBatch(g, f)
		}
		return
	}
	byName := map[string]bench.BatchCase{}
	for _, c := range fresh {
		byName[c.Name] = c
	}
	for _, b := range base {
		f, ok := byName[b.Name]
		if !ok {
			g.missing("batch", b.Name)
			continue
		}
		g.eq("batch", b.Name, "seq_np_calls", b.SeqNP, f.SeqNP)
		auditBatch(g, f)
		fmt.Printf("  batch/%s: seq %s, batch %s, %.1fx amortized (wall-clock, not gated except amort>1)\n",
			b.Name, ms(b.SeqMS, f.SeqMS), ms(b.BatchMS, f.BatchMS), f.Amortization)
	}
}

// auditBatch applies the baseline-free internal invariants of one
// batch case.
func auditBatch(g *gate, f bench.BatchCase) {
	g.eq("batch", f.Name, "batch_np_calls (vs sequential)", f.SeqNP, f.BatchNP)
	g.checked++
	if f.Amortization <= 1 {
		g.failures++
		fmt.Printf("  FAIL batch/%s: compile amortization %.2f not > 1\n", f.Name, f.Amortization)
	}
}

// compareStream gates the streaming sweep: the model count and the
// drained ("push") NP total are pinned to the baseline, and the pulled
// iterator must report the exact NP total of the drained run.
// Time-to-first-model is reported, never gated.
func compareStream(g *gate, base, fresh []bench.StreamCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  stream: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		for _, f := range fresh {
			g.eq("stream", f.Name, "iter_np_calls (vs push)", f.PushNP, f.IterNP)
		}
		return
	}
	byName := map[string]bench.StreamCase{}
	for _, c := range fresh {
		byName[c.Name] = c
	}
	for _, b := range base {
		f, ok := byName[b.Name]
		if !ok {
			g.missing("stream", b.Name)
			continue
		}
		g.eq("stream", b.Name, "models", int64(b.Models), int64(f.Models))
		g.eq("stream", b.Name, "push_np_calls", b.PushNP, f.PushNP)
		g.eq("stream", b.Name, "iter_np_calls (vs push)", f.PushNP, f.IterNP)
		fmt.Printf("  stream/%s: buffered %s, first model %s, TTFM %.1fx (wall-clock, not gated)\n",
			b.Name, ms(b.BufferedMS, f.BufferedMS), ms(b.FirstModelMS, f.FirstModelMS), f.TTFMSpeedup)
	}
}

// compareStore gates the persistence sweep: the cold store-backed NP
// total is pinned to the baseline, persistence must move nothing
// (store-on == store-off), and the pre-warmed restart must compile
// zero databases cold and never exceed the cold process's oracle
// work. Time-to-warm wall-clock is reported, never gated.
func compareStore(g *gate, base, fresh []bench.StoreCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  store: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		for _, f := range fresh {
			auditStore(g, f)
		}
		return
	}
	type key struct{ name, sem string }
	byKey := map[key]bench.StoreCase{}
	for _, c := range fresh {
		byKey[key{c.Name, c.Semantics}] = c
	}
	for _, b := range base {
		id := b.Name + "/" + b.Semantics
		f, ok := byKey[key{b.Name, b.Semantics}]
		if !ok {
			g.missing("store", id)
			continue
		}
		g.eq("store", id, "store_on_np_calls", b.OnNP, f.OnNP)
		auditStore(g, f)
		fmt.Printf("  store/%s: cold %s, pre-warmed replay %s, %.1fx (wall-clock, not gated)\n",
			id, ms(b.ColdMS, f.ColdMS), ms(b.ReplayMS, f.ReplayMS), f.Speedup)
	}
}

// auditStore applies the baseline-free internal invariants of one
// store case.
func auditStore(g *gate, f bench.StoreCase) {
	id := f.Name + "/" + f.Semantics
	g.eq("store", id, "store_off_np_calls (vs store-on)", f.OnNP, f.OffNP)
	g.eq("store", id, "replay_cold_compiles", 0, f.ColdCompiles)
	g.checked++
	if f.ReplayNP > f.OnNP {
		g.failures++
		fmt.Printf("  FAIL store/%s: restart NP total %d exceeds cold total %d\n", id, f.ReplayNP, f.OnNP)
	}
}

// compareCluster gates the sharded-cluster sweep: the 1-node NP total
// is pinned to the baseline, and neither sharding nor router
// replication may move anything — the 3-node and 2-router totals must
// each equal the 1-node total, since consistent-hash routing keeps
// each compiled DB's warm session on exactly one worker no matter
// which router forwarded it. Wall-clock is reported, never gated.
func compareCluster(g *gate, base, fresh []bench.ClusterCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  cluster: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		for _, f := range fresh {
			auditCluster(g, f)
		}
		return
	}
	type key struct{ name, sem string }
	byKey := map[key]bench.ClusterCase{}
	for _, c := range fresh {
		byKey[key{c.Name, c.Semantics}] = c
	}
	for _, b := range base {
		id := b.Name + "/" + b.Semantics
		f, ok := byKey[key{b.Name, b.Semantics}]
		if !ok {
			g.missing("cluster", id)
			continue
		}
		g.eq("cluster", id, "one_node_np_calls", b.OneNP, f.OneNP)
		auditCluster(g, f)
		fmt.Printf("  cluster/%s: 1-node %s, 3-node %s, 2-router %s (wall-clock, not gated)\n",
			id, ms(b.OneMS, f.OneMS), ms(b.ThreeMS, f.ThreeMS), ms(b.TwoRouterMS, f.TwoRouterMS))
	}
}

// auditCluster applies the baseline-free internal invariants of one
// cluster case. Both apply to the fresh run only, so a baseline file
// written before a deployment shape existed (its fields decode as 0)
// never fails the gate.
func auditCluster(g *gate, f bench.ClusterCase) {
	g.eq("cluster", f.Name+"/"+f.Semantics, "three_node_np_calls (vs 1-node)", f.OneNP, f.ThreeNP)
	g.eq("cluster", f.Name+"/"+f.Semantics, "two_router_np_calls (vs 1-node)", f.OneNP, f.TwoRouterNP)
}

// comparePlanner gates the cost-based-routing sweep: the planner-off
// NP total is pinned to the baseline (a fresh engine per query over a
// seeded workload is deterministic), while the planner-on side is
// bounded — routing must move nothing (zero divergent verdicts) and the
// fast path must stay at zero NP calls.
func comparePlanner(g *gate, base, fresh []bench.PlannerCase) {
	if len(base) == 0 && len(fresh) > 0 {
		fmt.Printf("  planner: %d case(s) in fresh run, none in baseline — not gated\n", len(fresh))
		for _, f := range fresh {
			auditPlanner(g, f)
		}
		return
	}
	type key struct{ name, sem string }
	byKey := map[key]bench.PlannerCase{}
	for _, c := range fresh {
		byKey[key{c.Name, c.Semantics}] = c
	}
	for _, b := range base {
		id := b.Name + "/" + b.Semantics
		f, ok := byKey[key{b.Name, b.Semantics}]
		if !ok {
			g.missing("planner", id)
			continue
		}
		g.eq("planner", id, "planner_off_np_calls", b.OffNP, f.OffNP)
		auditPlanner(g, f)
		fmt.Printf("  planner/%s: off %s, on %s, %.1fx (wall-clock, not gated)\n",
			id, ms(b.OffMS, f.OffMS), ms(b.OnMS, f.OnMS), f.Speedup)
	}
}

// auditPlanner applies the baseline-free internal invariants of one
// planner case.
func auditPlanner(g *gate, f bench.PlannerCase) {
	id := f.Name + "/" + f.Semantics
	g.eq("planner", id, "divergent", 0, int64(f.Divergent))
	g.eq("planner", id, "fast_np_calls", 0, f.FastNP)
}

// ms formats a wall-clock pair "baseline→fresh".
func ms(base, fresh float64) string {
	return fmt.Sprintf("%.1f→%.1fms", base, fresh)
}

func load(path string) (*artefact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artefact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Report == nil {
		return nil, fmt.Errorf("%s: no report section", path)
	}
	return &a, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
