// Command ddbload drives a running ddbserve instance with a seeded,
// open-loop workload and verifies the robustness contract: every
// offered request must terminate as exactly one of completed (with a
// verdict byte-identical to a direct library call on the same input),
// incomplete with a typed budget cause, shed with a typed 429/503, or
// rejected with a typed 422. A single untyped outcome or diverging
// verdict fails the run.
//
// With -sweep, ddbload runs the same workload at several offered rates
// and prints a table of completed/shed/interrupted counts per rate —
// the load-shed sweep recorded in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"disjunct/internal/serve"

	_ "disjunct/internal/semantics/all"
)

func main() {
	var (
		baseURL  = flag.String("url", "http://127.0.0.1:8091", "ddbserve/ddbrouter base URL; a comma-separated list enables client-side router failover (sticky primary, next on transport failure)")
		rate     = flag.Float64("rate", 50, "offered requests/second")
		requests = flag.Int("requests", 200, "total requests to offer")
		workers  = flag.Int("workers", 16, "concurrent HTTP clients")
		seed     = flag.Int64("seed", 1, "workload seed")
		maxAtoms = flag.Int("maxatoms", 5, "vocabulary bound for generated databases")
		deadline = flag.Duration("deadline", 10*time.Second, "per-request client deadline ask")
		confl    = flag.Int64("conflictbudget", 0, "per-request conflict-budget ask (0 = none)")
		npcalls  = flag.Int64("npcallbudget", 0, "per-request NP-call-budget ask (0 = none)")
		verify   = flag.Bool("verify", true, "cross-check completed verdicts against direct library calls")
		hotDBs   = flag.Int("hotdbs", 0, "draw databases from a fixed pool of this size (repeat-DB workload; 0 = fresh db per request)")
		semList  = flag.String("semantics", "", "comma-separated semantics restriction (default: every registered semantics)")
		settle   = flag.Bool("settle", false, "after the run, require server goroutines to settle near idle baseline")
		sweep    = flag.String("sweep", "", "comma-separated offered rates; run the workload once per rate and print a table")
		batch    = flag.Int("batchsize", 0, "replay the workload through /v1/batch in chunks of this size instead of per-request (0 = off)")
		streams  = flag.Int("streams", 0, "verify this many /v1/models/stream enumerations against direct library runs (0 = off)")
		record   = flag.String("record", "", "write completed verdicts to this JSON file, keyed by deterministic job index")
		replay   = flag.String("replay", "", "compare completed verdicts against this recorded file; any divergence on a jointly-completed query fails the run")
		cluster  = flag.Bool("clustercheck", false, "after the run, require the target (a ddbrouter) to report failovers > 0 with a completion ratio >= -clustermin")
		clustMin = flag.Float64("clustermin", 0.95, "minimum failover_success/failovers ratio for -clustercheck")
		minComp  = flag.Float64("mincomplete", 0, "minimum completed/offered fraction; below it the run fails (0 = no floor)")
		abPlan   = flag.Bool("abplanner", false, "planner on/off A/B overload sweep against two in-process servers; -sweep values are saturation multipliers (default 1,2,4,8)")
		abSat    = flag.Float64("absatrate", 0, "assumed 1x saturation rate (req/s) for -abplanner (0 = calibrate with a FIFO leg)")
		abFloor  = flag.Float64("abfloor", 0, "minimum cost-aware/FIFO completed-throughput ratio at the highest shared multiplier >= 4 (0 = report only)")
	)
	flag.Parse()

	if *abPlan {
		os.Exit(runPlannerAB(*sweep, *requests, *seed, *verify, *abSat, *abFloor))
	}

	urls := splitList(*baseURL)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "ddbload: -url parsed to an empty list")
		os.Exit(2)
	}

	cfg := serve.LoadConfig{
		BaseURL:      urls[0],
		FallbackURLs: urls[1:],
		Rate:         *rate,
		Requests:     *requests,
		Workers:      *workers,
		Seed:         *seed,
		MaxAtoms:     *maxAtoms,
		Verify:       *verify,
		HotDBs:       *hotDBs,
		RecordPath:   *record,
		ReplayPath:   *replay,
		Semantics: func() []string {
			if *semList == "" {
				return nil
			}
			var out []string
			for _, s := range strings.Split(*semList, ",") {
				out = append(out, strings.TrimSpace(s))
			}
			return out
		}(),
		Limits: serve.LimitsJSON{
			DeadlineMS: deadline.Milliseconds(),
			Conflicts:  *confl,
			NPCalls:    *npcalls,
		},
	}

	client := &http.Client{Timeout: 5 * time.Second}
	baseline := -1
	if h, err := serve.FetchHealth(client, urls[0]); err == nil {
		baseline = h.Goroutines
	}

	fail := false
	if *batch > 0 {
		rep := serve.RunBatchReplay(cfg, *batch)
		fmt.Println(rep.String())
		if !rep.Clean() {
			fail = true
			for _, n := range rep.Notes {
				fmt.Fprintf(os.Stderr, "ddbload: batch: %s\n", n)
			}
		}
	}
	if *streams > 0 {
		rep := serve.RunStreamCheck(cfg, *streams)
		fmt.Println(rep.String())
		if !rep.Clean() {
			fail = true
			for _, n := range rep.Notes {
				fmt.Fprintf(os.Stderr, "ddbload: stream: %s\n", n)
			}
		}
	}
	if *batch > 0 || *streams > 0 {
		if *settle {
			settleCheck(client, urls[0], baseline, &fail)
		}
		if *cluster {
			clusterCheck(client, urls, *clustMin, &fail)
		}
		if fail {
			os.Exit(1)
		}
		return
	}
	if *sweep != "" {
		fmt.Printf("%10s %10s %10s %10s %10s %10s %10s %10s\n",
			"rate", "offered", "completed", "interrupt", "shed429", "shed503", "untyped", "divergent")
		for _, field := range strings.Split(*sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ddbload: bad -sweep rate %q: %v\n", field, err)
				os.Exit(2)
			}
			c := cfg
			c.Rate = r
			rep := serve.RunLoad(c)
			fmt.Printf("%10.0f %10d %10d %10d %10d %10d %10d %10d\n",
				r, rep.Offered, rep.Completed, rep.Incomplete, rep.Shed429, rep.Shed503, rep.Untyped, rep.Divergent)
			if !rep.Clean() {
				fail = true
				diagnose(rep)
			}
		}
	} else {
		rep := serve.RunLoad(cfg)
		fmt.Println(rep.String())
		if rep.RouterFailovers > 0 {
			fmt.Printf("router failovers: %d (over %d urls)\n", rep.RouterFailovers, len(urls))
		}
		if *replay != "" {
			fmt.Printf("replayed %d recorded verdicts, %d divergent\n", rep.Replayed, rep.Divergent)
			if rep.Replayed == 0 && rep.Completed > 0 {
				fmt.Fprintln(os.Stderr, "ddbload: replay compared zero verdicts despite completed queries")
				fail = true
			}
		}
		if !rep.Clean() {
			fail = true
			diagnose(rep)
		}
		if *minComp > 0 {
			frac := float64(rep.Completed) / float64(rep.Offered)
			fmt.Printf("completion: %d/%d = %.3f (floor %.2f)\n", rep.Completed, rep.Offered, frac, *minComp)
			if frac < *minComp {
				fmt.Fprintf(os.Stderr, "ddbload: completion %.3f below -mincomplete %.2f\n", frac, *minComp)
				fail = true
			}
		}
	}

	if *settle {
		settleCheck(client, urls[0], baseline, &fail)
	}
	if *cluster {
		clusterCheck(client, urls, *clustMin, &fail)
	}

	if fail {
		os.Exit(1)
	}
}

// runPlannerAB is the -abplanner mode: the same mixed cheap/expensive
// workload offered at saturation multiples against two in-process
// servers differing only in Config.Planner, FIFO vs cost-aware
// shedding side by side. Returns the process exit code.
func runPlannerAB(sweep string, requests int, seed int64, verify bool, satRate, floor float64) int {
	var mults []float64
	for _, field := range splitList(sweep) {
		m, err := strconv.ParseFloat(field, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbload: bad -sweep multiplier %q: %v\n", field, err)
			return 2
		}
		mults = append(mults, m)
	}
	rows, sat := serve.RunPlannerAB(serve.PlannerABConfig{
		Multipliers: mults,
		Requests:    requests,
		Seed:        seed,
		Verify:      verify,
		SatRate:     satRate,
	})
	fmt.Printf("planner A/B (saturation = %.1f req/s)\n", sat)
	fmt.Printf("%6s %8s %10s %11s %9s %10s %8s %8s\n",
		"mult", "rate", "fifo_done", "aware_done", "speedup", "shed_cost", "untyped", "divergent")
	fail := false
	var gateRow *serve.PlannerABRow
	for i := range rows {
		r := &rows[i]
		fmt.Printf("%6.1f %8.1f %10d %11d %9.2f %10d %8d %8d\n",
			r.Multiplier, r.Rate, r.FIFO.Completed, r.CostAware.Completed, r.Speedup(),
			r.Planner["shed_cost"], r.FIFO.Untyped+r.CostAware.Untyped,
			r.FIFO.Divergent+r.CostAware.Divergent)
		if !r.FIFO.Clean() || !r.CostAware.Clean() {
			fail = true
			diagnose(r.FIFO)
			diagnose(r.CostAware)
		}
		if r.Multiplier >= 4 && (gateRow == nil || r.Multiplier < gateRow.Multiplier) {
			gateRow = r
		}
	}
	if floor > 0 && gateRow != nil {
		if sp := gateRow.Speedup(); sp < floor {
			fmt.Fprintf(os.Stderr, "ddbload: abplanner: speedup %.2f at %.0fx below floor %.2f\n",
				sp, gateRow.Multiplier, floor)
			fail = true
		}
	}
	if fail {
		return 1
	}
	return 0
}

// splitList parses a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// clusterCheck reads each reachable ddbrouter's /healthz stats and
// enforces the failover-completion contract on the aggregate: at least
// one failover happened somewhere (the caller is expected to have
// killed a worker mid-load) and the fraction a surviving node answered
// meets the floor. Unreachable routers are skipped — killing one is
// part of the replication scenario — but at least one must respond.
func clusterCheck(client *http.Client, urls []string, min float64, fail *bool) {
	var fo, okc int64
	reachable := 0
	for _, u := range urls {
		resp, err := client.Get(u + "/healthz")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbload: clustercheck: %s unreachable (%v), skipping\n", u, err)
			continue
		}
		var h struct {
			Status string           `json:"status"`
			Stats  map[string]int64 `json:"stats"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if decErr != nil {
			fmt.Fprintf(os.Stderr, "ddbload: clustercheck: decode %s healthz: %v\n", u, decErr)
			*fail = true
			return
		}
		f, isRouter := h.Stats["failovers"]
		if !isRouter {
			fmt.Fprintf(os.Stderr, "ddbload: clustercheck: %s healthz has no failover stats (not a ddbrouter?)\n", u)
			*fail = true
			return
		}
		reachable++
		fo += f
		okc += h.Stats["failover_success"]
	}
	if reachable == 0 {
		fmt.Fprintln(os.Stderr, "ddbload: clustercheck: no router reachable")
		*fail = true
		return
	}
	if fo == 0 {
		fmt.Fprintln(os.Stderr, "ddbload: clustercheck: zero failovers recorded; the kill never forced a reroute")
		*fail = true
		return
	}
	ratio := float64(okc) / float64(fo)
	fmt.Printf("cluster: routers=%d failovers=%d completed=%d ratio=%.3f (min %.2f)\n", reachable, fo, okc, ratio, min)
	if ratio < min {
		fmt.Fprintf(os.Stderr, "ddbload: clustercheck: failover completion %.3f below floor %.2f\n", ratio, min)
		*fail = true
	}
}

// settleCheck requires the server's goroutine count to return near its
// pre-run baseline; a miss flips fail.
func settleCheck(client *http.Client, baseURL string, baseline int, fail *bool) {
	if baseline < 0 {
		return
	}
	got, ok := serve.AwaitGoroutineSettle(client, baseURL, baseline, 4, 5*time.Second)
	if !ok {
		fmt.Fprintf(os.Stderr, "ddbload: goroutines did not settle: baseline=%d now=%d\n", baseline, got)
		*fail = true
	} else {
		fmt.Printf("goroutines settled: baseline=%d now=%d\n", baseline, got)
	}
}

func diagnose(rep serve.LoadReport) {
	for _, n := range rep.UntypedNotes {
		fmt.Fprintf(os.Stderr, "ddbload: untyped outcome: %s\n", n)
	}
	for _, n := range rep.DivergeNotes {
		fmt.Fprintf(os.Stderr, "ddbload: verdict divergence: %s\n", n)
	}
}
