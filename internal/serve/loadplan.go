package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
)

// Planner A/B overload harness: the same mixed workload — cheap
// definite fast-path queries interleaved with expensive cold
// Σ₂ᵖ-class queries — offered at multiples of the measured saturation
// rate against two in-process servers that differ only in
// Config.Planner. Under FIFO the expensive queries fill the bounded
// queue and the cheap traffic sheds right along with them; with
// cost-aware admission the expensive tier sheds first (typed
// shed_cost) and the cheap tier keeps completing. The harness is what
// `ddbload -abplanner` runs and what EXPERIMENTS.md records.

// PlannerABConfig shapes one overload A/B comparison.
type PlannerABConfig struct {
	// Multipliers are the saturation multiples to sweep (default
	// 1, 2, 4, 8).
	Multipliers []float64
	// Requests offered per leg (default 240).
	Requests int
	Seed     int64
	// MaxAtoms bounds the expensive instances' vocabulary (default 48 —
	// at that size and ~1.5n clause density a quarter to a third of the
	// Πᵖ₂ literal queries cost tens of milliseconds to the full
	// deadline, the heavy tail that makes FIFO slots a scarce
	// resource).
	MaxAtoms int
	// CheapEvery interleaves one cheap definite job every N jobs
	// (default 2 — half the offered load is cheap).
	CheapEvery int
	// MaxConcurrent / QueueDepth shape the server under test (defaults
	// 2 and 2: small on purpose, so saturation is reachable — and the
	// queue shallow on purpose, because a deep buffer masks the
	// admission policy: when every arrival can wait, FIFO and
	// cost-aware shedding converge, while a shallow queue makes each
	// admitted Σ₂ᵖ monster evict real cheap traffic under FIFO).
	MaxConcurrent int
	QueueDepth    int
	// SatRate is the assumed 1× saturation rate in requests/second;
	// 0 measures it with a calibration leg (FIFO server, high offered
	// rate) and uses that leg's completed throughput.
	SatRate float64
	// DeadlineMS is the per-request budget deadline (default 2000):
	// queue waits past it shed typed instead of hanging the sweep.
	DeadlineMS int64
	// Verify cross-checks every completed verdict against a direct
	// library call (the zero-divergence acceptance gate).
	Verify bool
}

func (c PlannerABConfig) withDefaults() PlannerABConfig {
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{1, 2, 4, 8}
	}
	if c.Requests <= 0 {
		c.Requests = 240
	}
	if c.MaxAtoms < 4 {
		c.MaxAtoms = 48
	}
	if c.CheapEvery <= 0 {
		c.CheapEvery = 2
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxConcurrent
	}
	if c.DeadlineMS <= 0 {
		c.DeadlineMS = 2000
	}
	return c
}

// PlannerABRow is one saturation multiple's outcome pair.
type PlannerABRow struct {
	Multiplier float64    `json:"multiplier"`
	Rate       float64    `json:"rate"` // offered requests/second
	FIFO       LoadReport `json:"fifo"` // planner off
	CostAware  LoadReport `json:"cost_aware"`
	// Planner is the cost-aware server's /healthz planner section
	// after the leg (shed_cost, per-procedure routing counts).
	Planner map[string]int64 `json:"planner"`
}

// Speedup is the completed-throughput ratio cost-aware / FIFO.
func (r PlannerABRow) Speedup() float64 {
	if r.FIFO.Completed == 0 {
		return 0
	}
	return float64(r.CostAware.Completed) / float64(r.FIFO.Completed)
}

// genABJobs builds the mixed workload: expensive jobs are fresh (cold
// every request — no estimate, no warm session) positive disjunctive
// databases with literal queries (Πᵖ₂ for the minimal-model family);
// cheap jobs are definite-fragment literal queries answered by the
// fixpoint fast path in microseconds. Pure function of the seed.
func genABJobs(cfg PlannerABConfig) []loadJob {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// DSM literal inference is Πᵖ₂ AND outside the warm-session family,
	// so every expensive job takes the fresh path cold — the warm
	// minimal-model engines would otherwise absorb these instances in
	// microseconds and no leg would ever saturate. (PWS/PMS are also
	// outside the warm family but their dominant work runs off-oracle,
	// so the per-request deadline could not interrupt a monster.)
	expensiveSems := []string{"DSM"}

	// A small pool of definite chain programs: "c0. c1 :- c0. …" —
	// always FragDefinite, always fast-path.
	cheapDBs := make([]string, 4)
	for p := range cheapDBs {
		m := 3 + p
		var b strings.Builder
		fmt.Fprintf(&b, "c0.")
		for i := 1; i < m; i++ {
			fmt.Fprintf(&b, " c%d :- c%d.", i, i-1)
		}
		cheapDBs[p] = b.String()
	}

	jobs := make([]loadJob, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		var job loadJob
		job.idx = i
		job.kind = "literal"
		if i%cfg.CheapEvery == 0 {
			job.sem = expensiveSems[rng.Intn(len(expensiveSems))]
			job.dbText = cheapDBs[rng.Intn(len(cheapDBs))]
			job.literal = fmt.Sprintf("c%d", rng.Intn(3))
		} else {
			// Dense positive disjunctive instance, distinct per job so
			// every one is cold for both the session layer and the
			// estimator.
			n := cfg.MaxAtoms - rng.Intn(2)
			cl := 3*n/2 + rng.Intn(n/2+1)
			d := gen.Random(rng, gen.Positive(n, cl))
			parsed, err := db.Parse(d.String())
			if err != nil || parsed.N() == 0 {
				continue
			}
			job.sem = expensiveSems[rng.Intn(len(expensiveSems))]
			job.dbText = parsed.String()
			atom := parsed.Voc.Name(logic.Atom(rng.Intn(parsed.N())))
			if rng.Intn(2) == 0 {
				job.literal = "-" + atom
			} else {
				job.literal = atom
			}
		}
		body, _ := json.Marshal(QueryRequest{
			Semantics: job.sem,
			DB:        job.dbText,
			Literal:   job.literal,
			Limits:    LimitsJSON{DeadlineMS: cfg.DeadlineMS},
		})
		job.body = body
		jobs = append(jobs, job)
	}
	return jobs
}

// runABJobs is the compact open-loop runner behind the A/B legs: same
// pacing, classification, and verification as RunLoad, without the
// record/replay machinery.
func runABJobs(baseURL string, jobs []loadJob, rate float64, workers int, verify bool) LoadReport {
	report := LoadReport{ByCause: map[string]int{}, ByShed: map[string]int{}}
	var mu sync.Mutex
	note := func(list *[]string, format string, args ...any) {
		if len(*list) < 5 {
			*list = append(*list, fmt.Sprintf(format, args...))
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	routers := newRouterSet(baseURL, nil)
	ch := make(chan loadJob, len(jobs))
	// Completed verdicts are collected during the timed window and
	// cross-checked after it: a reference solve can cost seconds, and
	// running it inside a worker would throttle the offered load and
	// inflate the measured elapsed time.
	type done struct {
		job   loadJob
		holds bool
	}
	var completed []done
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				kind, status, qr, er, err := routers.doRequest(client, job)
				mu.Lock()
				switch kind {
				case outcomeCompleted:
					report.Completed++
					if verify {
						completed = append(completed, done{job, qr.Holds})
					}
				case outcomeIncomplete:
					report.Incomplete++
					report.ByCause[qr.CauseCode]++
				case outcomeShed429:
					report.Shed429++
					report.ByShed[er.Error]++
				case outcomeShed503:
					report.Shed503++
					report.ByShed[er.Error]++
				case outcomeRejected:
					report.Rejected++
				default:
					report.Untyped++
					note(&report.UntypedNotes, "status=%d err=%v sem=%s kind=%s", status, err, job.sem, job.kind)
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	next := start
	for _, job := range jobs {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		ch <- job
		next = next.Add(interval)
	}
	close(ch)
	wg.Wait()
	report.Offered = len(jobs)
	report.Elapsed = time.Since(start)
	for _, d := range completed {
		want, refErr := referenceVerdict(d.job)
		if refErr != nil {
			report.Untyped++
			note(&report.UntypedNotes, "reference error for %s %s: %v", d.job.sem, d.job.kind, refErr)
		} else if want != d.holds {
			report.Divergent++
			note(&report.DivergeNotes, "%s %s on %q: served=%v direct=%v",
				d.job.sem, d.job.kind, d.job.literal, d.holds, want)
		}
	}
	return report
}

// abLeg runs one leg: fresh in-process server, workload, healthz
// snapshot, drain.
func abLeg(cfg PlannerABConfig, jobs []loadJob, rate float64, planner bool) (LoadReport, map[string]int64) {
	srv := New(Config{
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		Sessions:      true,
		Planner:       planner,
		DrainTimeout:  2 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	rep := runABJobs(ts.URL, jobs, rate, 4*(cfg.MaxConcurrent+cfg.QueueDepth), cfg.Verify)
	var ps map[string]int64
	if h, err := FetchHealth(&http.Client{Timeout: 5 * time.Second}, ts.URL); err == nil {
		ps = h.Planner
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Drain(ctx)
	cancel()
	ts.Close()
	return rep, ps
}

// RunPlannerAB sweeps the saturation multiples, each leg pair sharing
// one identical job list, and returns one row per multiple. When
// cfg.SatRate is zero a calibration leg (FIFO server, offered far past
// capacity) measures the 1× rate first.
func RunPlannerAB(cfg PlannerABConfig) ([]PlannerABRow, float64) {
	cfg = cfg.withDefaults()
	jobs := genABJobs(cfg)
	sat := cfg.SatRate
	if sat <= 0 {
		// The calibration leg is unreported, so skip verification there:
		// its only output is the completed-throughput measurement.
		calCfg := cfg
		calCfg.Verify = false
		rep, _ := abLeg(calCfg, jobs, 500, false)
		sat = float64(rep.Completed) / rep.Elapsed.Seconds()
		if sat < 1 {
			sat = 1
		}
	}
	rows := make([]PlannerABRow, 0, len(cfg.Multipliers))
	for _, m := range cfg.Multipliers {
		rate := sat * m
		fifo, _ := abLeg(cfg, jobs, rate, false)
		aware, ps := abLeg(cfg, jobs, rate, true)
		rows = append(rows, PlannerABRow{
			Multiplier: m, Rate: rate,
			FIFO: fifo, CostAware: aware, Planner: ps,
		})
	}
	return rows, sat
}
