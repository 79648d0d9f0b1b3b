package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// Loadgen: an open-loop, seeded workload driver for the serving
// layer. It offers requests at a fixed rate regardless of how the
// server responds — which is exactly what creates overload — and
// classifies every terminal outcome into the typed taxonomy:
// completed (verdict cross-checked against a direct library call on
// the same input), incomplete (typed budget cause), shed (typed
// 429/503), or rejected (typed 422 for genuinely inapplicable
// inputs). Anything else — unparseable body, unknown cause code,
// transport error — is untyped, and the smoke harness hard-fails on a
// single occurrence.

// LoadConfig shapes one load run.
type LoadConfig struct {
	BaseURL string // e.g. "http://127.0.0.1:8091"
	// FallbackURLs are replica routers tried when the current one dies
	// at the transport level (connection refused/reset — the request
	// never produced a response). The client is sticky: it stays on one
	// router until that router fails, then moves to the next and stays
	// there — mirroring how a load balancer or DNS failover behaves,
	// and keeping the per-router healthz counters interpretable.
	FallbackURLs []string
	Rate         float64       // offered requests/second
	Requests     int           // total requests to offer
	Workers      int           // concurrent HTTP clients (default 4×queue)
	Seed         int64         // workload seed (db shapes, kinds, semantics)
	MaxAtoms     int           // vocabulary bound for generated dbs (default 5)
	Timeout      time.Duration // per-request client timeout (default 30s)
	Limits       LimitsJSON    // client budget ask sent with each request
	// Semantics restricts the mix; default is every described
	// semantics except the stratification-gated ones (whose 422s are
	// data-dependent noise for a load sweep).
	Semantics []string
	// Verify cross-checks every completed verdict against a direct
	// library call on the same (db, query) — the byte-identity
	// invariant of the acceptance criteria.
	Verify bool
	// HotDBs, when > 0, draws every job's database from a fixed pool
	// of this many pre-generated databases instead of a fresh database
	// per request — the repeat-DB workload that exercises the server's
	// warm session layer (compiled-DB cache, verdict memo, warm sessions).
	HotDBs int
	// RecordPath, when set, writes the run's completed verdicts to a
	// JSON file keyed by job index. genJobs is a pure function of
	// (Seed, Requests, MaxAtoms, HotDBs, Semantics), so a later run
	// with the same shape replays the identical workload and the index
	// identifies the identical query — the restart-replay contract.
	RecordPath string
	// ReplayPath, when set, loads a verdict file recorded by a previous
	// run of the same workload shape and counts any verdict that
	// differs on a query completed by both runs as Divergent. A file
	// recorded from a different workload shape is an untyped failure.
	ReplayPath string
}

// verdictLog is the record/replay file format.
type verdictLog struct {
	Seed     int64           `json:"seed"`
	Requests int             `json:"requests"`
	MaxAtoms int             `json:"max_atoms"`
	HotDBs   int             `json:"hot_dbs"`
	Verdicts []verdictLogRow `json:"verdicts"`
}

type verdictLogRow struct {
	Idx   int  `json:"idx"`
	Holds bool `json:"holds"`
}

// LoadReport is the outcome breakdown of one run.
type LoadReport struct {
	Offered    int `json:"offered"`
	Completed  int `json:"completed"`
	Incomplete int `json:"incomplete"`
	Shed429    int `json:"shed_429"`
	Shed503    int `json:"shed_503"`
	Rejected   int `json:"rejected"` // typed 422 (unsupported/not stratifiable)
	Untyped    int `json:"untyped"`  // ANY outcome outside the taxonomy
	Divergent  int `json:"divergent"`
	// RouterFailovers counts client-side switches to a fallback router
	// after a transport-level failure of the current one.
	RouterFailovers int            `json:"router_failovers,omitempty"`
	Replayed        int            `json:"replayed,omitempty"` // verdicts compared against a replay file
	ByCause         map[string]int `json:"by_cause"`
	ByShed          map[string]int `json:"by_shed"`
	Elapsed         time.Duration  `json:"elapsed_ns"`
	UntypedNotes    []string       `json:"untyped_notes,omitempty"` // first few diagnostics
	DivergeNotes    []string       `json:"diverge_notes,omitempty"`
}

// Clean reports whether the run satisfied the robustness contract:
// every request terminated typed and no completed verdict diverged.
func (r LoadReport) Clean() bool { return r.Untyped == 0 && r.Divergent == 0 }

func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d completed=%d incomplete=%d shed429=%d shed503=%d rejected=%d untyped=%d divergent=%d",
		r.Offered, r.Completed, r.Incomplete, r.Shed429, r.Shed503, r.Rejected, r.Untyped, r.Divergent)
	if len(r.ByCause) > 0 {
		keys := make([]string, 0, len(r.ByCause))
		for k := range r.ByCause {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "\n  causes:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, r.ByCause[k])
		}
	}
	return b.String()
}

// loadJob is one pre-generated request.
type loadJob struct {
	idx     int    // position in the deterministic workload
	kind    string // "literal" | "formula" | "model"
	sem     string
	dbText  string
	literal string
	formula string
	body    []byte
}

// genJobs pre-generates the whole workload serially so it is a pure
// function of the seed, independent of worker scheduling.
func genJobs(cfg LoadConfig) []loadJob {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sems := cfg.Semantics
	if len(sems) == 0 {
		for _, info := range core.Infos() {
			if !info.Stratified {
				sems = append(sems, info.Name)
			}
		}
	}
	// Repeat-DB mode: a fixed pool cycling the generator classes, each
	// job drawing from it (and picking a semantics its class supports).
	type hotDB struct {
		d             *db.DB
		hasNeg, hasIC bool
	}
	var pool []hotDB
	if cfg.HotDBs > 0 {
		for len(pool) < cfg.HotDBs {
			n := 2 + rng.Intn(cfg.MaxAtoms-1)
			// Dense instances: the pool exists for the repeat-DB
			// throughput sweep, where per-query solve cost should
			// dominate transport overhead (the fresh-per-request mode
			// below keeps its small robustness-workload instances).
			cl := 2 + n/2 + rng.Intn(n)
			var g *db.DB
			switch len(pool) % 4 {
			case 0:
				g = gen.Random(rng, gen.Positive(n, cl))
			case 1:
				g = gen.Random(rng, gen.WithIntegrity(n, cl))
			case 2:
				g = gen.Random(rng, gen.NormalNoIC(n, cl))
			default:
				g = gen.Random(rng, gen.Normal(n, cl))
			}
			rt, err := db.Parse(g.String())
			if err != nil || rt.N() == 0 {
				continue
			}
			hasIC := false
			for _, cl := range rt.Clauses {
				if cl.IsIntegrity() {
					hasIC = true
					break
				}
			}
			pool = append(pool, hotDB{d: rt, hasNeg: rt.HasNegation(), hasIC: hasIC})
		}
	}
	jobs := make([]loadJob, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		var semName string
		var d *db.DB
		if pool != nil {
			h := pool[rng.Intn(len(pool))]
			compatible := make([]string, 0, len(sems))
			for _, s := range sems {
				info, _ := core.InfoFor(s)
				if (info.NoNegation && h.hasNeg) || (info.NoIC && h.hasIC) {
					continue
				}
				compatible = append(compatible, s)
			}
			if len(compatible) == 0 {
				// A caller-restricted mix with no fit: the 422s are typed.
				compatible = sems
			}
			semName, d = compatible[rng.Intn(len(compatible))], h.d
		} else {
			semName = sems[rng.Intn(len(sems))]
			info, _ := core.InfoFor(semName)
			n := 2 + rng.Intn(cfg.MaxAtoms-1)
			// The query is phrased against the textual form the server will
			// parse, so atoms must come from the round-tripped vocabulary
			// (a generated atom that appears in no clause is absent there).
			for {
				var g *db.DB
				switch {
				case info.NoNegation && info.NoIC:
					g = gen.Random(rng, gen.Positive(n, 1+rng.Intn(6)))
				case info.NoNegation:
					g = gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
				case info.NoIC:
					g = gen.Random(rng, gen.NormalNoIC(n, 1+rng.Intn(6)))
				default:
					g = gen.Random(rng, gen.Normal(n, 1+rng.Intn(6)))
				}
				rt, err := db.Parse(g.String())
				if err == nil && rt.N() > 0 {
					d = rt
					break
				}
			}
		}
		job := loadJob{idx: i, sem: semName, dbText: d.String()}
		atom := d.Voc.Name(logic.Atom(rng.Intn(d.N())))
		switch k := rng.Intn(10); {
		case k < 6:
			job.kind = "literal"
			if rng.Intn(2) == 0 {
				job.literal = "-" + atom
			} else {
				job.literal = atom
			}
		case k < 8:
			job.kind = "formula"
			other := d.Voc.Name(logic.Atom(rng.Intn(d.N())))
			job.formula = "~" + atom + " | " + other
		default:
			job.kind = "model"
		}
		body, _ := json.Marshal(QueryRequest{
			Semantics: job.sem,
			DB:        job.dbText,
			Literal:   job.literal,
			Formula:   job.formula,
			Limits:    cfg.Limits,
		})
		job.body = body
		jobs = append(jobs, job)
	}
	return jobs
}

// endpoint maps a job kind to its path.
func endpoint(kind string) string {
	switch kind {
	case "literal":
		return "/v1/infer/literal"
	case "formula":
		return "/v1/infer/formula"
	default:
		return "/v1/model"
	}
}

// referenceVerdict recomputes the job's query with a direct,
// unbudgeted, fault-free library call on the same database text the
// server parsed.
func referenceVerdict(job loadJob) (bool, error) {
	d, err := db.Parse(job.dbText)
	if err != nil {
		return false, err
	}
	sem, ok := core.New(job.sem, core.Options{Oracle: oracle.NewNP()})
	if !ok {
		return false, fmt.Errorf("semantics %q not registered", job.sem)
	}
	switch job.kind {
	case "literal":
		lit, err := parseLiteral(job.literal, d.Voc)
		if err != nil {
			return false, err
		}
		return sem.InferLiteral(d, lit)
	case "formula":
		f, err := logic.ParseFormula(job.formula, d.Voc)
		if err != nil {
			return false, err
		}
		return sem.InferFormula(d, f)
	default:
		return sem.HasModel(d)
	}
}

// RunLoad drives the workload against cfg.BaseURL and returns the
// typed breakdown.
func RunLoad(cfg LoadConfig) LoadReport {
	if cfg.MaxAtoms < 2 {
		cfg.MaxAtoms = 5
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	jobs := genJobs(cfg)
	ch := make(chan loadJob, len(jobs))
	client := &http.Client{Timeout: cfg.Timeout}
	routers := newRouterSet(cfg.BaseURL, cfg.FallbackURLs)

	report := LoadReport{ByCause: map[string]int{}, ByShed: map[string]int{}}
	var mu sync.Mutex
	var completedVerdicts map[int]bool
	if cfg.RecordPath != "" || cfg.ReplayPath != "" {
		completedVerdicts = map[int]bool{}
	}
	note := func(list *[]string, format string, args ...any) {
		if len(*list) < 5 {
			*list = append(*list, fmt.Sprintf(format, args...))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				kind, status, qr, er, err := routers.doRequest(client, job)
				mu.Lock()
				switch kind {
				case outcomeCompleted:
					report.Completed++
					if completedVerdicts != nil {
						completedVerdicts[job.idx] = qr.Holds
					}
					if cfg.Verify {
						want, refErr := referenceVerdict(job)
						if refErr != nil {
							report.Untyped++
							note(&report.UntypedNotes, "reference error for %s %s: %v", job.sem, job.kind, refErr)
						} else if want != qr.Holds {
							report.Divergent++
							note(&report.DivergeNotes, "%s %s on %q: served=%v direct=%v",
								job.sem, job.kind, job.literal+job.formula, qr.Holds, want)
						}
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
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	next := start
	for _, job := range jobs {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		ch <- job // buffered to len(jobs): offering never blocks on slow service
		next = next.Add(interval)
	}
	close(ch)
	wg.Wait()
	report.Offered = len(jobs)
	report.Elapsed = time.Since(start)
	report.RouterFailovers = int(routers.failovers.Load())

	if cfg.ReplayPath != "" {
		replayCompare(cfg, jobs, completedVerdicts, &report, note)
	}
	if cfg.RecordPath != "" {
		if err := writeVerdictLog(cfg, completedVerdicts); err != nil {
			report.Untyped++
			note(&report.UntypedNotes, "record: %v", err)
		}
	}
	return report
}

// writeVerdictLog persists the run's completed verdicts for a later
// replay, sorted by job index for deterministic files.
func writeVerdictLog(cfg LoadConfig, verdicts map[int]bool) error {
	lg := verdictLog{Seed: cfg.Seed, Requests: cfg.Requests, MaxAtoms: cfg.MaxAtoms, HotDBs: cfg.HotDBs}
	idxs := make([]int, 0, len(verdicts))
	for i := range verdicts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		lg.Verdicts = append(lg.Verdicts, verdictLogRow{Idx: i, Holds: verdicts[i]})
	}
	data, err := json.MarshalIndent(lg, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.RecordPath, data, 0o644)
}

// replayCompare checks this run's completed verdicts against a
// recorded file: same workload shape required, and every query both
// runs completed must agree — SIGKILL-torn runs legitimately complete
// different subsets, so only the intersection is gated.
func replayCompare(cfg LoadConfig, jobs []loadJob, verdicts map[int]bool, report *LoadReport, note func(*[]string, string, ...any)) {
	data, err := os.ReadFile(cfg.ReplayPath)
	if err != nil {
		report.Untyped++
		note(&report.UntypedNotes, "replay: %v", err)
		return
	}
	var lg verdictLog
	if err := json.Unmarshal(data, &lg); err != nil {
		report.Untyped++
		note(&report.UntypedNotes, "replay: %v", err)
		return
	}
	if lg.Seed != cfg.Seed || lg.Requests != cfg.Requests || lg.MaxAtoms != cfg.MaxAtoms || lg.HotDBs != cfg.HotDBs {
		report.Untyped++
		note(&report.UntypedNotes, "replay file shape (seed=%d req=%d atoms=%d hot=%d) differs from this run",
			lg.Seed, lg.Requests, lg.MaxAtoms, lg.HotDBs)
		return
	}
	for _, row := range lg.Verdicts {
		got, ok := verdicts[row.Idx]
		if !ok {
			continue // not completed by this run (shed/incomplete): not comparable
		}
		report.Replayed++
		if got != row.Holds {
			report.Divergent++
			job := jobs[row.Idx]
			note(&report.DivergeNotes, "replay divergence at job %d: %s %s on %q: this=%v recorded=%v",
				row.Idx, job.sem, job.kind, job.literal+job.formula, got, row.Holds)
		}
	}
}

// routerSet is the client side of router replication: an ordered URL
// list with a sticky current pick. A request that dies at the
// transport level without a response demotes the current router and
// retries on the next — safe even though POST is not idempotent,
// because inference is pure: re-solving yields the identical verdict,
// and the job is counted once, by its final outcome. Timeouts do NOT
// fail over: a slow-but-alive router may have the query solving right
// now, and hammering a replica with duplicates is how overload spreads.
type routerSet struct {
	urls      []string
	cur       atomic.Int32
	failovers atomic.Int64
}

func newRouterSet(primary string, fallbacks []string) *routerSet {
	return &routerSet{urls: append([]string{primary}, fallbacks...)}
}

// demote advances the sticky pick past a failed router. Compare-and-
// swap keeps concurrent demotions of the same router to one advance.
func (rs *routerSet) demote(idx int32) {
	if rs.cur.CompareAndSwap(idx, (idx+1)%int32(len(rs.urls))) {
		rs.failovers.Add(1)
	}
}

// transportFailure reports whether an exchange died before any
// response arrived for a reason that indicts the router (not the
// request): status 0 and not a client-side timeout.
func transportFailure(status int, err error) bool {
	if status != 0 || err == nil {
		return false
	}
	var ue *url.Error
	if errors.As(err, &ue) && ue.Timeout() {
		return false
	}
	return true
}

// doRequest runs one job with router failover: at most one attempt per
// configured router, sticky between failures.
func (rs *routerSet) doRequest(client *http.Client, job loadJob) (int, int, QueryResponse, ErrorResponse, error) {
	for attempt := 0; ; attempt++ {
		idx := rs.cur.Load()
		kind, status, qr, er, err := doRequest(client, rs.urls[idx], job)
		if kind == outcomeUntyped && transportFailure(status, err) &&
			len(rs.urls) > 1 && attempt+1 < len(rs.urls) {
			rs.demote(idx)
			continue
		}
		return kind, status, qr, er, err
	}
}

// outcome classes of one HTTP exchange.
const (
	outcomeCompleted = iota
	outcomeIncomplete
	outcomeShed429
	outcomeShed503
	outcomeRejected
	outcomeUntyped
)

// doRequest performs one exchange and classifies it. Every path that
// doesn't match the typed taxonomy exactly returns outcomeUntyped.
func doRequest(client *http.Client, baseURL string, job loadJob) (int, int, QueryResponse, ErrorResponse, error) {
	var qr QueryResponse
	var er ErrorResponse
	resp, err := client.Post(baseURL+endpoint(job.kind), "application/json", bytes.NewReader(job.body))
	if err != nil {
		return outcomeUntyped, 0, qr, er, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("reading body: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(body, &qr); err != nil {
			return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("partial/invalid 200 body: %w", err)
		}
		switch qr.Verdict {
		case "true", "false":
			return outcomeCompleted, resp.StatusCode, qr, er, nil
		case "incomplete":
			if !KnownCauseCodes[qr.CauseCode] {
				return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("unknown cause code %q", qr.CauseCode)
			}
			return outcomeIncomplete, resp.StatusCode, qr, er, nil
		default:
			return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("unknown verdict %q", qr.Verdict)
		}
	case http.StatusTooManyRequests:
		if err := json.Unmarshal(body, &er); err != nil || (er.Error != ShedQueueFull && er.Error != ShedQueueWait && er.Error != ShedCost) {
			return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("untyped 429 body %q", body)
		}
		return outcomeShed429, resp.StatusCode, qr, er, nil
	case http.StatusServiceUnavailable:
		// node_unavailable is the cluster router's typed shed when a
		// key's whole failover sequence is down; single-node servers
		// never emit it.
		if err := json.Unmarshal(body, &er); err != nil ||
			(er.Error != ShedDraining && er.Error != ShedBreakerOpen && er.Error != ShedNodeUnavailable) {
			return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("untyped 503 body %q", body)
		}
		return outcomeShed503, resp.StatusCode, qr, er, nil
	case http.StatusUnprocessableEntity:
		if err := json.Unmarshal(body, &er); err != nil || (er.Error != ReasonUnsupported && er.Error != ReasonNotStratifiable) {
			return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("untyped 422 body %q", body)
		}
		return outcomeRejected, resp.StatusCode, qr, er, nil
	default:
		return outcomeUntyped, resp.StatusCode, qr, er, fmt.Errorf("unexpected status %d body %q", resp.StatusCode, body)
	}
}

// FetchHealth reads and decodes /healthz. The request carries its own
// deadline: a health probe against a wedged server must fail fast, not
// inherit the client's (possibly unlimited) timeout.
func FetchHealth(client *http.Client, baseURL string) (Health, error) {
	var h Health
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// AwaitGoroutineSettle polls /healthz until the reported goroutine
// count drops back to at most baseline+slack, or the timeout expires.
func AwaitGoroutineSettle(client *http.Client, baseURL string, baseline, slack int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	last := -1
	for time.Now().Before(deadline) {
		h, err := FetchHealth(client, baseURL)
		if err == nil {
			last = h.Goroutines
			if h.Goroutines <= baseline+slack {
				return last, true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return last, false
}
