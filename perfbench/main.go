// Command perfbench is the repository's end-to-end benchmark. It drives
// the query service in-process through its public HTTP handlers
// (serve.Server.Handler, cluster.Router.Handler) with one closed-loop
// client, verifies every answer against a direct library reference, and
// prints its metrics by name with their units; the last line of
// standard output is one JSON object.
//
//	go run . --workload cold-mixed --seed 1 --seconds 10 --trace 0
//
// Workloads: cold-mixed, hot-routed, stream-minimal (see workload.go and
// BENCHMARK.json for why each was chosen). --trace 1 runs a separate
// pass over the same seeded inputs that records spans and reports the
// per-layer metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
	"unsafe"

	_ "disjunct/internal/semantics/all"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and definitions, printed beside the value
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRuns is how many times a run constructs the system and warms it
// up; setup_s is the median, and the last construction is measured.
var setupRuns = map[string]int{"cold-mixed": 3, "hot-routed": 3, "stream-minimal": 5}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "cold-mixed", "cold-mixed | hot-routed | stream-minimal")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	genInputs, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}

	t0 := time.Now()
	in := genInputs(*seed, *seconds)
	stage := func(name string) {
		fmt.Printf("# stage %s done at %.2fs\n", name, time.Since(t0).Seconds())
	}
	stage("generate")
	printCohort(*workload, *seed, *seconds, *trace, in)

	tr := newTracer()
	runtime.GC()
	baseHeap := heapAlloc()
	var sys *system
	var c *client
	var setups []float64
	for k := 0; k < setupRuns[*workload]; k++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // every construction starts from the same heap
		start := time.Now()
		sys = build(*workload, *seed, tr)
		c = &client{front: sys.front, tr: tr, rec: newRecorder()}
		warmup(c, &in)
		setups = append(setups, time.Since(start).Seconds())
	}
	stage("setup")
	fmt.Printf("# setups (s): %.3f\n", setups)
	runtime.GC()
	before, err := sys.counters()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rtBefore := readRuntime()
	ph := runPhase(c, &in, time.Duration(*seconds)*time.Second, *trace == 1)
	rtAfter := readRuntime()
	runtime.GC()
	runtime.GC() // the second cycle empties sync.Pool victim caches
	// The client's own records are not the server's state.
	liveHeap := heapAlloc() - baseHeap - float64(cap(ph.samples))*float64(unsafe.Sizeof(sample{}))/(1<<20)
	after, err := sys.counters()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	sys.close()
	stage("timed phase")

	v := verify(&in, ph.samples)
	stage("verify")
	fmt.Printf("# verified %d/%d complete, %d failed, %d divergent\n", v.okCount, len(ph.samples), len(ph.samples)-v.okCount, len(v.divergent))
	for _, n := range v.notes {
		fmt.Println("# failure:", n)
	}

	var ms []metric
	if *trace == 1 {
		ms = perLayer(*workload, &in, ph, v, tr, diff(after, before), rtAfter.sub(rtBefore))
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Println("# spans written to", path)
	} else {
		ms = endToEnd(*workload, &in, ph, v, median(setups), liveHeap)
	}

	res := result{Correct: len(v.divergent) == 0 && v.refErrors == 0, Attempted: len(ph.samples), Failed: len(ph.samples) - v.okCount, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		fmt.Printf("%-40s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printCohort prints the header every result is recorded with.
func printCohort(workload string, seed int64, seconds, trace int, in inputs) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	h := map[string]any{
		"commit": rev, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"shape": in.shape, "distinct_inputs": len(in.distinct),
		"serve_config": serveConfig(), "clients": 1, "loop": "closed",
		"setup_runs": setupRuns[workload], "slices": slices,
	}
	if workload == "hot-routed" {
		rc := routerConfig(seed, nil)
		h["router_config"] = map[string]any{
			"replicas": rc.Replicas, "failover_max": rc.FailoverMax, "probe_interval": rc.ProbeInterval.String(),
			"fail_threshold": rc.FailThreshold, "gossip_interval": rc.GossipInterval.String(), "key_cache": rc.KeyCache,
			"request_timeout": rc.RequestTimeout.String(), "transport": "in-process",
		}
	}
	b, _ := json.Marshal(h)
	fmt.Println("# cohort", string(b))
}

func heapAlloc() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func diff(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile (nearest rank) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}
