// Package serve is the resilient HTTP/JSON inference service over the
// semantics registry: every registered semantics (all ten families of
// the paper, aliases included) is queryable for literal inference,
// formula inference, and model existence.
//
// The paper's complexity landscape — P cells next to Π₂ᵖ cells — means
// per-request cost varies by orders of magnitude on the same server,
// so the serving layer is built around typed degradation rather than
// best-effort unbounded concurrency:
//
//   - Admission control: a bounded queue in front of a fixed-size
//     execution pool. When the queue is full, requests shed instantly
//     with a typed 429 + Retry-After (O(1) per shed, regardless of how
//     expensive the queries holding the slots are).
//   - Budget clamping: every request runs under a budget.B whose
//     limits are min(client ask, server ceiling) — a client can ask
//     for less than the ceiling but never more, and the effective
//     limits are echoed in the response.
//   - Typed three-valued answers: a 200 carries core.Verdict — true,
//     false, or incomplete with the typed interruption cause and the
//     exact oracle counters up to the interruption.
//   - Bounded retry: transient-class oracle failures (faults.ErrTransient)
//     are retried a bounded number of times with seeded full-jitter
//     backoff before surfacing as incomplete.
//   - Circuit breaking: a per-semantics closed/open/half-open breaker
//     around the oracle path. Infrastructure failures open it; while
//     open, requests shed fast with a typed 503; after a cooldown a
//     single probe decides between closing and re-opening.
//   - Graceful drain: Drain stops admission (503 for new work), lets
//     in-flight requests finish inside a drain deadline, then cancels
//     the shared base context so stragglers are interrupted through
//     the budget layer — every interruption stays typed.
//
// Every route that can run a solver — /v1/infer/literal,
// /v1/infer/formula, /v1/model, /v1/batch and /v1/models/stream —
// enters through one front door: a drain check, a capped JSON decode
// (1 MiB, or 4 MiB for a batch), the database load (artifact cache,
// else parse and intern; an empty vocabulary is a typed 400), and one
// admission gate that registers with the drain wait, queues no longer
// than the effective deadline and answers every shed typed. What sits
// between decode and admission is each route's own: a single query
// passes the verdict memo, then the planner's cost shed and bulkhead,
// then its semantics' breaker; a batch validates each query and is
// admitted as one unit; a stream checks its kind and clamps its model
// limit. Once admitted, solves observe the drain deadline and streams
// the drain begin.
//
// /healthz reports queue depth, in-flight count, breaker states, and
// shed/completion counters; /readyz flips to 503 the moment draining
// begins so load balancers stop routing before the listener closes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/plan"
	"disjunct/internal/session"
	"disjunct/internal/store"
)

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected while queued, so the body exists
// for logs, not for the (gone) client. net/http permits any code ≥ 100.
const statusClientClosedRequest = 499

// ErrDrainForced reports that the drain deadline passed with requests
// still in flight; they were canceled through the budget layer (each
// finished with a typed incomplete verdict, not a torn connection).
var ErrDrainForced = errors.New("serve: drain deadline exceeded; in-flight queries canceled")

// Config tunes the server. The zero value gets sensible defaults from
// New.
type Config struct {
	// MaxConcurrent bounds simultaneously executing queries
	// (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot beyond
	// the executing ones (default 8×MaxConcurrent).
	QueueDepth int
	// Ceilings are the server-enforced per-request budget limits.
	// A request's effective budget is min(client ask, ceiling) per
	// dimension; zero fields leave that dimension unlimited.
	Ceilings budget.Limits
	// DrainTimeout is how long Drain waits for in-flight work before
	// canceling it through the budget layer (default 5s).
	DrainTimeout time.Duration
	// RetryMax bounds query-level retries when the oracle path fails
	// with a transient-class fault (default 2; 0 disables).
	RetryMax int
	// Breaker configures the per-semantics circuit breakers
	// (default threshold 5, cooldown 1s; Threshold ≤ 0 disables —
	// the zero value therefore disables breaking only if set
	// explicitly after New).
	Breaker BreakerConfig
	// FaultRate/FaultSeed switch on seeded chaos injection on the
	// oracle path of every request (0 = off). Used by the smoke/soak
	// harnesses; production servers leave it off.
	FaultRate float64
	FaultSeed int64
	// Sessions switches on the warm query-session layer
	// (internal/session): a compiled-DB artifact cache, a verdict memo
	// in front of every route, fragment fast paths, warm incremental
	// solver sessions.
	Sessions bool
	// SessionCacheBytes / SessionMaxSessions / SessionMaxQueries /
	// SessionBatchWindow tune the session manager (zero = its
	// defaults); ignored unless Sessions is set.
	SessionCacheBytes  int64
	SessionMaxSessions int
	SessionMaxQueries  int
	SessionBatchWindow time.Duration
	// Store is the optional persistent compiled-artifact and verdict
	// tier (internal/store), already opened by the caller. Setting it
	// forces Sessions on (the store backs the session caches): compile
	// misses fall through to disk, fresh compiles and completed warm
	// verdicts are written behind, startup pre-warms the compile cache
	// from disk before /readyz reports ready, and Drain flushes and
	// closes the store instead of discarding it.
	Store *store.Store
	// Planner switches on the cost-based query planner (internal/plan):
	// every query is classified into a cost class before admission,
	// routed to the cheapest correct procedure (fast path / warm
	// session / fresh / brute refsem), and
	// under overload the admission queue sheds expensive queries first
	// with a typed shed_cost 429 instead of FIFO. Forces Sessions on
	// (the planner classifies on the compiled artifact).
	Planner bool
	// PlannerBruteAtoms / PlannerExpensiveNP / PlannerShedOccupancy
	// tune the planner (zero = its defaults: 8 atoms, 8 NP calls, 0.5
	// occupancy); ignored unless Planner is set.
	PlannerBruteAtoms    int
	PlannerExpensiveNP   int64
	PlannerShedOccupancy float64
	// BatchMaxQueries caps the queries one /v1/batch request may carry
	// (default 256; larger batches are rejected with a typed 400).
	BatchMaxQueries int
	// StreamMaxModels caps the models one /v1/models/stream request may
	// emit regardless of its own limit (0 = uncapped).
	StreamMaxModels int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.MaxConcurrent
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.Breaker.Threshold == 0 {
		c.Breaker = BreakerConfig{Threshold: 5, Cooldown: time.Second}
	}
	if c.Breaker.Cooldown <= 0 {
		c.Breaker.Cooldown = time.Second
	}
	if c.BatchMaxQueries <= 0 {
		c.BatchMaxQueries = 256
	}
	if c.Store != nil || c.Planner {
		c.Sessions = true
	}
	return c
}

// stats are the monotonic outcome counters surfaced by /healthz.
type stats struct {
	completed      atomic.Int64 // 200 with a definite verdict
	incomplete     atomic.Int64 // 200 with a typed interruption
	shedQueueFull  atomic.Int64
	shedQueueWait  atomic.Int64
	shedClientGone atomic.Int64 // client disconnected while queued
	shedDraining   atomic.Int64
	shedBreaker    atomic.Int64
	shedCost       atomic.Int64 // cost-aware admission sheds (planner on)
	badRequest     atomic.Int64 // 400/404/422
	retries        atomic.Int64 // query-level transient retries performed

	batchRequests    atomic.Int64 // /v1/batch requests admitted
	batchQueries     atomic.Int64 // queries carried by admitted batches
	streams          atomic.Int64 // /v1/models/stream requests admitted
	streamModels     atomic.Int64 // model rows emitted across all streams
	streamClientGone atomic.Int64 // streams cut by a client disconnect
	streamHCF        atomic.Int64 // streams served by the head-cycle-free minimal-model iterator
}

// Server is the inference service. Create with New, mount Handler on
// any http.Server (or httptest), and call Drain to shut down.
type Server struct {
	cfg Config
	adm *admission
	mux *http.ServeMux

	// drainCtx is cancelled the moment draining begins: admission and
	// readiness watch it. baseCtx is cancelled DrainTimeout later:
	// request budgets derive from it, so cancellation reaches in-flight
	// solvers as a typed budget.ErrCanceled.
	drainCtx    context.Context
	drainCancel context.CancelFunc
	baseCtx     context.Context
	baseCancel  context.CancelCauseFunc

	// drainMu orders request registration against the start of a drain:
	// register's wg.Add and Drain's draining.Store are both under it,
	// so every Add strictly happens-before Drain's Wait (never an Add
	// from a zero counter concurrent with Wait).
	drainMu   sync.Mutex
	wg        sync.WaitGroup
	drainOnce sync.Once
	drainDone chan struct{}
	drainErr  error
	inFlight  atomic.Int64
	draining  atomic.Bool
	reqSeq    atomic.Uint64

	breakerMu sync.Mutex
	breakers  map[string]*breaker

	// sessions is the warm query-session layer and verdict memo, nil
	// unless cfg.Sessions.
	sessions *session.Manager

	// planner is the cost-based query planner, nil unless cfg.Planner.
	// expBusy counts expensive-tier requests currently admitted
	// (queued or executing); the bulkhead sheds the tier past
	// MaxConcurrent-1 so one execution slot always stays available to
	// cheap traffic no matter how long the expensive queries run.
	planner *plan.Planner
	expBusy atomic.Int64

	// store is the persistent tier (nil when disabled). warmed flips
	// once the startup prewarm finishes (immediately when no store);
	// /readyz stays unready until then, and warmedCh orders Drain's
	// store close after the prewarm goroutine exits.
	store     *store.Store
	warmed    atomic.Bool
	warmedCh  chan struct{}
	prewarmed atomic.Int64 // artifacts loaded by the startup prewarm

	stats stats

	// testHook, when non-nil, runs while a request holds an execution
	// slot (before solving). Tests use it to hold slots open
	// deterministically.
	testHook func()
}

// New builds a Server. Semantics must already be registered (blank-
// import disjunct/internal/semantics/all).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		adm:       newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		breakers:  map[string]*breaker{},
		drainDone: make(chan struct{}),
	}
	if cfg.Sessions {
		s.sessions = session.NewManager(session.Config{
			MaxBytes:             cfg.SessionCacheBytes,
			MaxSessions:          cfg.SessionMaxSessions,
			MaxQueriesPerSession: cfg.SessionMaxQueries,
			BatchWindow:          cfg.SessionBatchWindow,
			Store:                cfg.Store,
		})
		s.store = cfg.Store
	}
	if cfg.Planner {
		s.planner = plan.New(plan.Config{
			BruteMaxAtoms: cfg.PlannerBruteAtoms,
			ExpensiveNP:   cfg.PlannerExpensiveNP,
			ShedOccupancy: cfg.PlannerShedOccupancy,
		})
	}
	s.warmedCh = make(chan struct{})
	if s.store != nil {
		// Pre-warm the compile cache from disk before reporting ready:
		// load balancers only route once hot databases answer with zero
		// cold compiles. Queries that race the prewarm are still correct —
		// they fall through to the store per-text.
		go func() {
			defer close(s.warmedCh)
			n, err := s.sessions.Prewarm()
			if err == nil {
				s.prewarmed.Store(int64(n))
			}
			s.warmed.Store(true)
		}()
	} else {
		s.warmed.Store(true)
		close(s.warmedCh)
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/infer/literal", s.queryHandler("literal"))
	s.mux.HandleFunc("POST /v1/infer/formula", s.queryHandler("formula"))
	s.mux.HandleFunc("POST /v1/model", s.queryHandler("model"))
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/models/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/semantics", s.handleSemantics)
	s.mux.HandleFunc("GET /v1/handoff/export", s.handleHandoffExport)
	s.mux.HandleFunc("POST /v1/handoff/import", s.handleHandoffImport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports the number of requests currently executing.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// Drain gracefully shuts the server down: admission stops immediately
// (new requests shed with a typed 503, /readyz goes unready), in-flight
// requests are given cfg.DrainTimeout to finish, and whatever is still
// running after that is cancelled through the budget layer — each
// straggler completes its HTTP exchange with a typed incomplete
// verdict. Returns nil if everything finished inside the deadline,
// ErrDrainForced otherwise. ctx can force the cancellation phase early.
// Safe to call more than once: the first call runs the drain; later
// calls wait for that same drain and return its result (their ctx does
// not restart the grace period or force a drain already reported
// clean).
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		defer close(s.drainDone)
		s.drainErr = s.drain(ctx)
	})
	<-s.drainDone
	return s.drainErr
}

// drain is the body of the one real Drain call.
func (s *Server) drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.drainCancel()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	forced := false
	select {
	case <-done:
	case <-timer.C:
		forced = true
	case <-ctx.Done():
		forced = true
	}
	if forced {
		s.baseCancel(ErrDrainForced)
		<-done // budgets poll the context at conflict boundaries; prompt
		s.closeStore()
		return ErrDrainForced
	}
	s.closeStore()
	return nil
}

// closeStore flushes and closes the persistent tier at the end of a
// drain — the whole point of the store is that a drain persists the
// warm state instead of discarding it. Runs after the in-flight wait,
// so completed requests' write-behinds are on disk before exit; it
// also waits for the startup prewarm goroutine so Close never races a
// loader. The store's flusher goroutine is guaranteed exited when this
// returns (the soak's settle check asserts it).
func (s *Server) closeStore() {
	if s.store == nil {
		return
	}
	<-s.warmedCh
	s.store.Close()
}

// register adds the request to the drain WaitGroup unless draining has
// begun; it returns false (and adds nothing) in the latter case. Under
// drainMu a request either sees draining set and sheds, or completes
// its Add before Drain can begin waiting — so a drain reported clean
// never leaves a registered request still running.
func (s *Server) register() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

// breakerFor returns (creating on first use) the breaker guarding one
// semantics.
func (s *Server) breakerFor(name string) *breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b, ok := s.breakers[name]
	if !ok {
		b = newBreaker(s.cfg.Breaker)
		s.breakers[name] = b
	}
	return b
}

// writeJSON marshals v fully before touching the ResponseWriter, so a
// client never observes a partial body: either the whole typed
// document arrives or the connection errors.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshal of our own wire types cannot fail; guard anyway.
		http.Error(w, `{"error":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// writeShed emits a typed shed response with Retry-After.
func writeShed(w http.ResponseWriter, status int, resp ErrorResponse) {
	if resp.RetryAfterMS > 0 {
		secs := (resp.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, resp)
}

// retryAfterMS converts a breaker cooldown remainder into the wire
// hint, clamping to at least 1ms: a sub-millisecond remainder must not
// truncate to 0, which would suppress both the JSON field (omitempty)
// and the Retry-After header the cluster router keys its backoff on.
func retryAfterMS(d time.Duration) int64 {
	ms := int64(d / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// clamp applies the server ceilings to a client ask: per dimension the
// effective limit is the stricter of the two (zero = unlimited).
func clamp(ask, ceiling budget.Limits) budget.Limits {
	min := func(a, c int64) int64 {
		switch {
		case c <= 0:
			return a
		case a <= 0 || a > c:
			return c
		default:
			return a
		}
	}
	eff := budget.Limits{
		Conflicts:    min(ask.Conflicts, ceiling.Conflicts),
		Propagations: min(ask.Propagations, ceiling.Propagations),
		NPCalls:      min(ask.NPCalls, ceiling.NPCalls),
	}
	switch {
	case ceiling.Deadline <= 0:
		eff.Deadline = ask.Deadline
	case ask.Deadline <= 0 || ask.Deadline > ceiling.Deadline:
		eff.Deadline = ceiling.Deadline
	default:
		eff.Deadline = ask.Deadline
	}
	return eff
}

// parsedQuery is a decoded, validated request.
type parsedQuery struct {
	semName string
	d       *db.DB
	lit     logic.Lit
	formula *logic.Formula
	eff     budget.Limits
	// comp is the compiled artifact when the session layer is on;
	// qtext is the canonical query text.
	comp  *session.Compiled
	qtext string
	// dec is the planner's pre-admission decision; planned reports
	// whether one was made (planner on and artifact compiled).
	dec     plan.Decision
	planned bool
}

// sessionRequest is the query in the session layer's terms; b bounds
// a warm solve (nil for memo reads and writes).
func (pq parsedQuery) sessionRequest(kind string, b *budget.B) session.Request {
	return session.Request{
		Sem:       pq.semName,
		Kind:      sessionKind(kind),
		Lit:       pq.lit,
		F:         pq.formula,
		QueryText: pq.qtext,
		Budget:    b,
	}
}

// remember writes a complete verdict, from any route, into the memo of
// its artifact. Fast-path answers are not persisted: they cost nothing
// to re-derive.
func (s *Server) remember(comp *session.Compiled, kind string, pq parsedQuery, resp QueryResponse) {
	if s.sessions == nil || comp == nil || resp.Incomplete || resp.Path == "memo" {
		return
	}
	s.sessions.Remember(comp, pq.sessionRequest(kind, nil), resp.Holds, resp.Path != "fast")
}

// parseLiteral parses "x", "-x", "~x", or "not x" against a
// vocabulary.
func parseLiteral(in string, voc *logic.Vocabulary) (logic.Lit, error) {
	t := strings.TrimSpace(in)
	neg := false
	switch {
	case strings.HasPrefix(t, "-"):
		neg, t = true, strings.TrimSpace(t[1:])
	case strings.HasPrefix(t, "~"):
		neg, t = true, strings.TrimSpace(t[1:])
	case strings.HasPrefix(t, "not "):
		neg, t = true, strings.TrimSpace(t[4:])
	}
	if t == "" {
		return 0, fmt.Errorf("empty literal")
	}
	a, ok := voc.Lookup(t)
	if !ok {
		return 0, fmt.Errorf("atom %q not in the database's vocabulary", t)
	}
	return logic.MkLit(a, !neg), nil
}

// parseQuery parses the query text of one kind against pq's database:
// a literal or a formula, with its canonical text; a model query has
// none. The error's text is the wire detail of the typed 400.
func (pq *parsedQuery) parseQuery(kind, literal, formula string) error {
	voc := pq.d.Voc
	switch kind {
	case "literal":
		lit, err := parseLiteral(literal, voc)
		if err != nil {
			return fmt.Errorf("literal: %w", err)
		}
		pq.lit, pq.qtext = lit, voc.LitString(lit)
	case "formula":
		f, err := logic.ParseFormula(formula, voc)
		if err != nil {
			return fmt.Errorf("formula: %w", err)
		}
		pq.formula, pq.qtext = f, f.String(voc)
	case "model":
	default:
		return errors.New("kind: " + kind)
	}
	return nil
}

// The front door, in call order: readBody, loadDB, the route's own
// checks, enter, and once admitted linkCtx. Each step writes its own
// typed answer when it refuses a request.

// readBody sheds the request with a typed 503 when the server is
// draining, and otherwise decodes its JSON body, capped at limit
// bytes, into v: a *QueryRequest through the one-pass scanner, any
// other body through encoding/json. false means it has answered.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if s.draining.Load() {
		s.stats.shedDraining.Add(1)
		writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		return false
	}
	body := http.MaxBytesReader(nil, r.Body, limit)
	var err error
	if req, ok := v.(*QueryRequest); ok {
		err = readQueryRequest(body, req)
	} else {
		err = json.NewDecoder(body).Decode(v)
	}
	if err != nil {
		s.reject(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "body: " + err.Error()})
		return false
	}
	return true
}

// reject answers a request the service will not run (400, 404, 422).
func (s *Server) reject(w http.ResponseWriter, status int, resp ErrorResponse) {
	s.stats.badRequest.Add(1)
	writeJSON(w, status, resp)
}

// semanticError is the typed 422 body of a database outside the class
// a semantics is defined for: a semantic outcome, not a service failure.
func semanticError(semName string, err error) ErrorResponse {
	reason := ReasonUnsupported
	if errors.Is(err, core.ErrNotStratifiable) {
		reason = ReasonNotStratifiable
	}
	return ErrorResponse{Error: reason, Semantics: semName, Detail: err.Error()}
}

// loadDB returns the request's database and, with sessions on, its
// compiled artifact. Hot databases skip grounding entirely: the
// artifact (parse, CNF, fingerprint, classification) is cached by exact
// request text and shared read-only across requests. false means it
// has answered a typed 400 (unparseable, or an empty vocabulary).
func (s *Server) loadDB(w http.ResponseWriter, text string) (*session.Compiled, *db.DB, bool) {
	var comp *session.Compiled
	var d *db.DB
	if s.sessions != nil {
		if comp, _ = s.sessions.Lookup(text); comp != nil {
			d = comp.D
		}
	}
	if d == nil {
		parsed, err := db.Parse(text)
		if err != nil {
			s.reject(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "db: " + err.Error()})
			return nil, nil, false
		}
		d = parsed
		if s.sessions != nil {
			comp = s.sessions.Intern(text, d)
			d = comp.D
		}
	}
	if d.N() == 0 {
		s.reject(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "db: empty vocabulary"})
		return nil, nil, false
	}
	return comp, d, true
}

// enter is the admission gate. It registers the request with the drain
// wait before admission, so Drain's Wait covers the whole admit+run
// span, then waits for an execution slot no longer than the request's
// effective deadline (measured from arrival; the solve budget restarts
// after admission). Every shed is answered typed: 429 + Retry-After for
// a full queue or an expired wait, 499 for a client gone while queued,
// 503 when draining. It returns the result with its shed reason, ""
// once admitted; an admitted request must defer s.leave().
func (s *Server) enter(w http.ResponseWriter, r *http.Request, deadline time.Duration) admitResult {
	if !s.register() {
		s.stats.shedDraining.Add(1)
		writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		return admitResult{shed: ShedDraining}
	}
	admCtx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		admCtx, cancel = context.WithTimeout(admCtx, deadline)
		defer cancel()
	}
	res := s.adm.admit(s.drainCtx, admCtx)
	status, counter, retryMS := http.StatusServiceUnavailable, &s.stats.shedDraining, int64(0)
	switch res.shed {
	case "":
		s.inFlight.Add(1)
		if s.testHook != nil {
			s.testHook()
		}
		return res
	case ShedQueueFull:
		status, counter, retryMS = http.StatusTooManyRequests, &s.stats.shedQueueFull, 50
	case ShedQueueWait:
		status, counter, retryMS = http.StatusTooManyRequests, &s.stats.shedQueueWait, 50
	case ShedClientGone:
		status, counter = statusClientClosedRequest, &s.stats.shedClientGone
	}
	counter.Add(1)
	writeShed(w, status, ErrorResponse{Error: res.shed, RetryAfterMS: retryMS})
	s.wg.Done()
	return res
}

// leave returns an admitted request's execution slot and its drain
// registration.
func (s *Server) leave() {
	s.adm.release()
	s.inFlight.Add(-1)
	s.wg.Done()
}

// link ties a request context to one of the server's own: baseCtx (the
// drain deadline) for solves, drainCtx (drain begin) for streams.
type link struct {
	cancel context.CancelCauseFunc
	stop   func() bool
}

// linkCtx returns a child of reqCtx that server's cancellation also
// cancels, with server's cause; defer the link's unlink.
func linkCtx(reqCtx, server context.Context) (context.Context, link) {
	ctx, cancel := context.WithCancelCause(reqCtx)
	stop := context.AfterFunc(server, func() { cancel(context.Cause(server)) })
	// AfterFunc runs asynchronously; if server is already cancelled,
	// cancel synchronously so even an instant query cannot race past a
	// forced drain and report a complete verdict.
	if server.Err() != nil {
		cancel(context.Cause(server))
	}
	return ctx, link{cancel, stop}
}

func (l link) unlink() {
	l.stop()
	l.cancel(nil)
}

// decodeQuery reads and validates the body for one query kind; false
// means it has answered with a typed rejection.
func (s *Server) decodeQuery(w http.ResponseWriter, kind string, r *http.Request) (parsedQuery, bool) {
	var pq parsedQuery
	var req QueryRequest
	if !s.readBody(w, r, 1<<20, &req) {
		return pq, false
	}
	if _, ok := core.InfoFor(req.Semantics); !ok {
		s.reject(w, http.StatusNotFound, ErrorResponse{Error: ReasonUnknownSemantics, Semantics: req.Semantics})
		return pq, false
	}
	var ok bool
	if pq.comp, pq.d, ok = s.loadDB(w, req.DB); !ok {
		return pq, false
	}
	pq.semName = req.Semantics
	if err := pq.parseQuery(kind, req.Literal, req.Formula); err != nil {
		s.reject(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: err.Error()})
		return pq, false
	}
	pq.eff = clamp(req.Limits.ToLimits(), s.cfg.Ceilings)
	return pq, true
}

// queryHandler builds the handler for one query kind. The request
// path is: decode (drain check, body, database, query text) → verdict
// memo → planner → breaker → admission → execute (with bounded
// transient retries) → typed response.
func (s *Server) queryHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pq, ok := s.decodeQuery(w, kind, r)
		if !ok {
			return
		}

		// A repeat answers from the verdict memo before any planning,
		// breaker or admission work: a hit claims no execution slot.
		if s.sessions != nil {
			if holds, ok := s.sessions.Recall(pq.comp, pq.sessionRequest(kind, nil)); ok {
				s.stats.completed.Add(1)
				writeJSON(w, http.StatusOK, sessionResponse(kind, pq, session.Result{Holds: holds, Path: "memo"}, time.Now()))
				return
			}
		}

		// Cost-aware admission: the planner classifies the query on its
		// compiled artifact before any slot is claimed. Past the queue's
		// occupancy threshold, expensive queries (Σ₂ᵖ-class, cold or
		// high-estimate) shed with a typed 429 so the cheap traffic the
		// server can still finish keeps completing — under FIFO both
		// classes would shed alike once the queue fills.
		if s.planner != nil && pq.comp != nil {
			pq.dec = s.planner.Decide(pq.comp, pq.semName, sessionKind(kind))
			pq.planned = true
			queued, _, _ := s.adm.depth()
			shed := s.planner.ShouldShed(pq.dec, int(queued), s.adm.queueBound())
			if !shed && s.planner.Expensive(pq.dec) {
				// Bulkhead: the expensive tier holds at most
				// MaxConcurrent-1 admissions at once, so a burst of
				// seconds-long Σ₂ᵖ queries can never pin every
				// execution slot — the microsecond traffic always has
				// one to land on. (The occupancy check above can't
				// provide this: a fast-draining queue reads as empty
				// the instant an expensive query arrives, even while
				// every slot is blocked.)
				tierCap := int64(s.cfg.MaxConcurrent - 1)
				if tierCap < 1 {
					tierCap = 1
				}
				if s.expBusy.Add(1) > tierCap {
					s.expBusy.Add(-1)
					shed = true
				} else {
					defer s.expBusy.Add(-1)
				}
			}
			if shed {
				s.planner.CountShed()
				s.stats.shedCost.Add(1)
				writeShed(w, http.StatusTooManyRequests, ErrorResponse{
					Error: ShedCost, Semantics: pq.semName, RetryAfterMS: 50,
				})
				return
			}
		}
		br := s.breakerFor(pq.semName)
		ok, probe, retryAfter := br.allow()
		if !ok {
			s.stats.shedBreaker.Add(1)
			writeShed(w, http.StatusServiceUnavailable, ErrorResponse{
				Error:        ShedBreakerOpen,
				Semantics:    pq.semName,
				RetryAfterMS: retryAfterMS(retryAfter),
			})
			return
		}

		res := s.enter(w, r, pq.eff.Deadline)
		if res.shed != "" {
			// The breaker saw neither success nor failure: record
			// nothing, but return a claimed probe slot so the breaker
			// can't wedge half-open with probing set forever.
			if probe {
				br.cancelProbe()
			}
			return
		}
		defer s.leave()

		resp, semErr := s.execute(r.Context(), kind, pq)
		if semErr == nil {
			s.remember(pq.comp, kind, pq, resp)
		}
		if semErr != nil {
			s.reject(w, http.StatusUnprocessableEntity, semanticError(pq.semName, semErr))
			br.record(false)
			return
		}
		resp.QueueMS = float64(res.waited) / float64(time.Millisecond)
		br.record(resp.Incomplete && infrastructureFailure(resp.CauseCode))
		if resp.Incomplete {
			s.stats.incomplete.Add(1)
		} else {
			s.stats.completed.Add(1)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// infrastructureFailure classifies cause codes for the breaker: only
// oracle-infrastructure faults (transient exhaustion, injected
// cancels — surfaced as plain cancels — are excluded because genuine
// client cancels look identical) open the breaker. A client whose own
// conflict/NP/deadline budget trips is being served correctly.
func infrastructureFailure(code string) bool {
	return code == CauseTransientExhausted
}

// handleSemantics lists the registry with its dispatch metadata.
func (s *Server) handleSemantics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Semantics []core.Info `json:"semantics"`
	}{core.Infos()})
}

// breakerReport is one breaker's /healthz entry.
type breakerReport struct {
	State    string `json:"state"`
	Failures int    `json:"failures"`
}

// Health is the /healthz document.
type Health struct {
	Status     string                   `json:"status"` // "ok" | "prewarming" | "draining"
	Queued     int64                    `json:"queued"`
	Waiting    int64                    `json:"waiting"`
	Executing  int64                    `json:"executing"`
	InFlight   int64                    `json:"in_flight"`
	Goroutines int                      `json:"goroutines"`
	Breakers   map[string]breakerReport `json:"breakers"`
	Stats      map[string]int64         `json:"stats"`
	// Sessions is present when the warm session layer is enabled:
	// compiled-artifact cache hits/misses/bytes, checkout and
	// fast-path/warm counters, and residency gauges.
	Sessions map[string]int64 `json:"sessions,omitempty"`
	// Store is present when the persistent tier is enabled: entry
	// counts, write-behind and recovery statistics, and the prewarm
	// outcome. `torn_tail`/`flusher_running`/`prewarmed` are 0/1 gauges.
	Store map[string]int64 `json:"store,omitempty"`
	// Planner is present when the cost-based planner is enabled:
	// decisions and estimates served, per-procedure routing counts,
	// and cost sheds.
	Planner map[string]int64 `json:"planner,omitempty"`
}

func (s *Server) health() Health {
	queued, waiting, executing := s.adm.depth()
	h := Health{
		Status:     "ok",
		Queued:     queued,
		Waiting:    waiting,
		Executing:  executing,
		InFlight:   s.inFlight.Load(),
		Goroutines: runtime.NumGoroutine(),
		Breakers:   map[string]breakerReport{},
		Stats: map[string]int64{
			"completed":          s.stats.completed.Load(),
			"incomplete":         s.stats.incomplete.Load(),
			"shed_queue_full":    s.stats.shedQueueFull.Load(),
			"shed_queue_wait":    s.stats.shedQueueWait.Load(),
			"shed_client_gone":   s.stats.shedClientGone.Load(),
			"shed_draining":      s.stats.shedDraining.Load(),
			"shed_breaker":       s.stats.shedBreaker.Load(),
			"shed_cost":          s.stats.shedCost.Load(),
			"bad_request":        s.stats.badRequest.Load(),
			"retries":            s.stats.retries.Load(),
			"batch_requests":     s.stats.batchRequests.Load(),
			"batch_queries":      s.stats.batchQueries.Load(),
			"streams":            s.stats.streams.Load(),
			"stream_models":      s.stats.streamModels.Load(),
			"stream_client_gone": s.stats.streamClientGone.Load(),
			"stream_hcf":         s.stats.streamHCF.Load(),
		},
	}
	if s.sessions != nil {
		st := s.sessions.Stats()
		h.Sessions = map[string]int64{
			"compiled_hits":      st.CompiledHits,
			"compiled_misses":    st.CompiledMisses,
			"compiled_bytes":     st.CompiledBytes,
			"compiled_entries":   st.CompiledEntries,
			"compiled_evictions": st.CompiledEvictions,
			"fast_queries":       st.FastQueries,
			"warm_queries":       st.WarmQueries,
			"memo_hits":          st.MemoHits,
			"checkouts":          st.Checkouts,
			"checkout_timeouts":  st.CheckoutTimeouts,
			"retired":            st.Retired,
			"active_checkouts":   st.ActiveCheckouts,
			"sessions":           st.Sessions,
			"cold_compiles":      st.ColdCompiles,
			"store_hits":         st.StoreArtifactHits,
			"prewarmed_arts":     st.PrewarmedArtifacts,
			"verdict_seeds":      st.StoreVerdictSeeds,
		}
	}
	if s.store != nil {
		st := s.store.Stats()
		b2i := func(v bool) int64 {
			if v {
				return 1
			}
			return 0
		}
		h.Store = map[string]int64{
			"artifacts":       st.Artifacts,
			"verdicts":        st.Verdicts,
			"queued_writes":   st.QueuedWrites,
			"flushed_writes":  st.FlushedWrites,
			"flushes":         st.Flushes,
			"compactions":     st.Compactions,
			"write_errors":    st.WriteErrors,
			"size_bytes":      st.SizeBytes,
			"torn_tail":       b2i(st.TornTail),
			"dropped_bytes":   st.DroppedBytes,
			"flusher_running": b2i(st.FlusherRunning),
			"prewarmed":       b2i(s.warmed.Load()),
			"prewarmed_arts":  s.prewarmed.Load(),
		}
	}
	if s.planner != nil {
		h.Planner = s.planner.Stats()
	}
	if !s.warmed.Load() {
		// Mirror /readyz for the healthz-probing cluster router: the
		// store prewarm is still running, so the node is alive but must
		// not take traffic yet.
		h.Status = "prewarming"
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	s.breakerMu.Lock()
	for name, b := range s.breakers {
		state, failures := b.snapshot()
		h.Breakers[name] = breakerReport{State: state, Failures: failures}
	}
	s.breakerMu.Unlock()
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}{false, ShedDraining})
		return
	}
	if !s.warmed.Load() {
		// The store prewarm hasn't finished: stay unready so load
		// balancers don't route traffic into a cold compile cache.
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}{false, "prewarming"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Ready bool `json:"ready"`
	}{true})
}
