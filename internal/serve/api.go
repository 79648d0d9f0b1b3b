package serve

import (
	"errors"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/faults"
	"disjunct/internal/oracle"
)

// Wire types of the HTTP/JSON API. Every terminal outcome a client can
// observe is typed: a 200 carries a three-valued verdict (true / false
// / incomplete-with-cause), a shed carries an ErrorResponse whose
// Error field is one of the Shed* / error reason constants below.
// There is no untyped path — the race suite and the load generator
// hard-fail on any body that doesn't parse into one of these shapes.

// LimitsJSON is the budget a client asks for (request) or the
// effective clamped budget the server granted (response). Zero means
// "no preference" in requests; in responses zero means unlimited.
type LimitsJSON struct {
	DeadlineMS   int64 `json:"deadline_ms,omitempty"`
	Conflicts    int64 `json:"conflicts,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	NPCalls      int64 `json:"np_calls,omitempty"`
}

// ToLimits converts the wire form into budget.Limits.
func (l LimitsJSON) ToLimits() budget.Limits {
	return budget.Limits{
		Conflicts:    l.Conflicts,
		Propagations: l.Propagations,
		NPCalls:      l.NPCalls,
		Deadline:     time.Duration(l.DeadlineMS) * time.Millisecond,
	}
}

// LimitsFrom converts budget.Limits into the wire form.
func LimitsFrom(lim budget.Limits) LimitsJSON {
	return LimitsJSON{
		DeadlineMS:   int64(lim.Deadline / time.Millisecond),
		Conflicts:    lim.Conflicts,
		Propagations: lim.Propagations,
		NPCalls:      lim.NPCalls,
	}
}

// QueryRequest is the body of the three query endpoints. DB is the
// database in the repo's surface syntax; Literal ("x" / "-x" / "~x")
// and Formula are parsed against the database's vocabulary.
type QueryRequest struct {
	Semantics string     `json:"semantics"`
	DB        string     `json:"db"`
	Literal   string     `json:"literal,omitempty"`
	Formula   string     `json:"formula,omitempty"`
	Limits    LimitsJSON `json:"limits"`
}

// CountersJSON mirrors oracle.Counters on the wire.
type CountersJSON struct {
	NPCalls     int64 `json:"np_calls"`
	Sigma2Calls int64 `json:"sigma2_calls"`
	SATConfl    int64 `json:"sat_confl"`
}

// CountersFrom converts oracle counters into the wire form.
func CountersFrom(c oracle.Counters) CountersJSON {
	return CountersJSON{NPCalls: c.NPCalls, Sigma2Calls: c.Sigma2Calls, SATConfl: c.SATConfl}
}

// QueryResponse is a 200 answer: the three-valued verdict, the typed
// interruption cause when incomplete, the exact oracle counters of the
// attempt that produced the verdict, and the effective (clamped)
// budget it ran under.
type QueryResponse struct {
	Semantics  string       `json:"semantics"`
	Kind       string       `json:"kind"` // "literal" | "formula" | "model"
	Verdict    string       `json:"verdict"`
	Holds      bool         `json:"holds"`
	Incomplete bool         `json:"incomplete"`
	CauseCode  string       `json:"cause_code,omitempty"`
	Cause      string       `json:"cause,omitempty"`
	Counters   CountersJSON `json:"counters"`
	Limits     LimitsJSON   `json:"limits"`
	// Path reports how the answer was produced when the warm session
	// layer is on: "memo" (a verdict completed earlier on any route,
	// zero counters and no admission slot), "fast" (fragment fast
	// path, zero NP calls), "session" (warm incremental engine),
	// "coalesced" (shared from a concurrent identical request —
	// counters and timings are the leader's, limits the request's
	// own), or, with the planner on,
	// "brute" (refsem model-set construction, zero NP calls). Empty for
	// the fresh path.
	Path    string  `json:"path,omitempty"`
	Retries int     `json:"retries"`
	QueueMS float64 `json:"queue_ms"`
	SolveMS float64 `json:"solve_ms"`
}

// Shed / error reasons carried in ErrorResponse.Error.
const (
	// ShedQueueFull: the admission queue is full (HTTP 429 + Retry-After).
	ShedQueueFull = "queue_full"
	// ShedQueueWait: the request's deadline expired while it was still
	// queued — no solve work was started (HTTP 429 + Retry-After).
	ShedQueueWait = "queue_wait_timeout"
	// ShedClientGone: the client disconnected (or otherwise canceled
	// the request) while it was still queued — no solve work was
	// started (HTTP 499, nginx-style "client closed request"; the
	// response body usually goes unread and exists for logs/stats).
	ShedClientGone = "client_gone"
	// ShedDraining: the server is draining and admits nothing new
	// (HTTP 503).
	ShedDraining = "draining"
	// ShedBreakerOpen: the per-semantics circuit breaker is open
	// (HTTP 503 + Retry-After).
	ShedBreakerOpen = "breaker_open"
	// ReasonBadRequest: malformed body, database, literal, or formula
	// (HTTP 400).
	ReasonBadRequest = "bad_request"
	// ReasonUnknownSemantics: the name is not in the registry (HTTP 404).
	ReasonUnknownSemantics = "unknown_semantics"
	// ReasonUnsupported: the database is outside the class the
	// semantics is defined for (HTTP 422).
	ReasonUnsupported = "unsupported"
	// ReasonNotStratifiable: a stratification-based semantics was given
	// a non-stratifiable database (HTTP 422).
	ReasonNotStratifiable = "not_stratifiable"
	// ReasonBatchTooLarge: the batch exceeds the server's per-request
	// query cap (HTTP 400).
	ReasonBatchTooLarge = "batch_too_large"
	// ShedNodeUnavailable: the cluster router exhausted its failover
	// sequence for the request's keyspace slice — every candidate worker
	// was dead, draining, or breaker-open (HTTP 503 + Retry-After tied
	// to the router's health-probe interval).
	ShedNodeUnavailable = "node_unavailable"
	// ShedCost: cost-aware admission shed the query because the queue
	// is past its occupancy threshold and the planner classified it
	// expensive — Σ₂ᵖ-class and either cold (no calibrated estimate for
	// its fingerprint×semantics yet) or with a high NP-call estimate
	// (HTTP 429 + Retry-After). Cheap queries keep completing; under
	// FIFO they would starve behind the expensive ones.
	ShedCost = "shed_cost"
)

// BatchQuery is one query of a batch request. Kind is "literal",
// "formula", or "model"; empty infers it from which field is set
// (Literal → literal, Formula → formula, neither → model). Semantics
// overrides the batch default for this query only.
type BatchQuery struct {
	Kind      string `json:"kind,omitempty"`
	Semantics string `json:"semantics,omitempty"`
	Literal   string `json:"literal,omitempty"`
	Formula   string `json:"formula,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many queries against one
// database. The database is parsed/compiled once; Limits is the
// per-query budget ask (clamped by the server ceilings, applied to
// each query independently); Semantics is the default for queries that
// don't name their own.
type BatchRequest struct {
	Semantics string       `json:"semantics,omitempty"`
	DB        string       `json:"db"`
	Queries   []BatchQuery `json:"queries"`
	Limits    LimitsJSON   `json:"limits"`
}

// BatchItem is one query's outcome inside a BatchResponse: exactly one
// of Response (a 200-shaped verdict) or Error (the same typed taxonomy
// a standalone request would have received) is set.
type BatchItem struct {
	Index    int            `json:"index"`
	Response *QueryResponse `json:"response,omitempty"`
	Error    *ErrorResponse `json:"error,omitempty"`
}

// BatchResponse is the 200 body of /v1/batch. CompileMS is the shared
// database parse/compile cost, paid once for the whole batch; QueueMS
// is the single admission wait (a batch occupies one execution slot).
// Paths counts per-query routes ("fast"/"session"/"fresh").
type BatchResponse struct {
	Queries    int            `json:"queries"`
	Completed  int            `json:"completed"`
	Incomplete int            `json:"incomplete"`
	Errored    int            `json:"errored"`
	CompileMS  float64        `json:"compile_ms"`
	QueueMS    float64        `json:"queue_ms"`
	Paths      map[string]int `json:"paths,omitempty"`
	Results    []BatchItem    `json:"results"`
}

// StreamRequest is the body of POST /v1/models/stream: an NDJSON model
// enumeration. Kind is "models" (default, all models) or "minimal"
// (MM(DB)); Parallel selects the worker-pool enumerator (same set,
// nondeterministic order); Limit ≤ 0 means unlimited (subject to the
// server's StreamMaxModels cap); Limits is the stream's budget ask.
type StreamRequest struct {
	DB       string     `json:"db"`
	Kind     string     `json:"kind,omitempty"`
	Limit    int        `json:"limit,omitempty"`
	Parallel bool       `json:"parallel,omitempty"`
	Limits   LimitsJSON `json:"limits"`
}

// StreamModelRow is one NDJSON model line: the true atoms, in
// vocabulary order (empty slice = the empty model).
type StreamModelRow struct {
	Model []string `json:"model"`
}

// StreamDoneRow is the terminal NDJSON record every stream ends with —
// even interrupted ones. Cause is "complete", "limit", a budget cause
// code, "canceled" (drain or explicit cancel), or "client_gone".
type StreamDoneRow struct {
	Done         bool         `json:"done"`
	Cause        string       `json:"cause"`
	Count        int          `json:"count"`
	Counters     CountersJSON `json:"counters"`
	Limits       LimitsJSON   `json:"limits"`
	FirstModelMS float64      `json:"first_model_ms"`
	TotalMS      float64      `json:"total_ms"`
}

// StreamLine is the union shape NDJSON consumers decode each line
// into: a model row has Model != nil and Done false; the terminal
// record has Done true.
type StreamLine struct {
	Model    []string     `json:"model"`
	Done     bool         `json:"done"`
	Cause    string       `json:"cause"`
	Count    int          `json:"count"`
	Counters CountersJSON `json:"counters"`
}

// Terminal causes specific to streams (budget causes and "canceled"
// reuse the Cause* codes; "client_gone" reuses ShedClientGone).
const (
	StreamCauseComplete = "complete"
	StreamCauseLimit    = "limit"
	// StreamCauseNodeLost is appended by the cluster router when the
	// worker carrying a stream died mid-enumeration: the models emitted
	// so far are valid, the enumeration is incomplete, and the client
	// sees a typed terminal record instead of a torn body.
	StreamCauseNodeLost = "node_lost"
)

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	Error        string `json:"error"`
	Detail       string `json:"detail,omitempty"`
	Semantics    string `json:"semantics,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Cause codes for incomplete verdicts (QueryResponse.CauseCode).
const (
	CauseCanceled          = "canceled"
	CauseDeadline          = "deadline"
	CauseConflictBudget    = "conflict_budget"
	CausePropagationBudget = "propagation_budget"
	CauseNPCallBudget      = "np_call_budget"
	// CauseTransientExhausted marks an oracle whose injected transient
	// failures outlived both the solver-level retry budget and the
	// serving layer's query-level retries. It wraps budget.ErrCanceled,
	// so it still counts as a typed budget interruption.
	CauseTransientExhausted = "transient_exhausted"
)

// CauseCode maps a typed interruption error to its wire code, or ""
// for nil/unknown errors. The transient class is checked first —
// faults.ErrExhausted wraps budget.ErrCanceled, and the more specific
// code is the useful one for operators and breakers.
func CauseCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, faults.ErrTransient):
		return CauseTransientExhausted
	case errors.Is(err, budget.ErrConflictBudget):
		return CauseConflictBudget
	case errors.Is(err, budget.ErrPropagationBudget):
		return CausePropagationBudget
	case errors.Is(err, budget.ErrNPCallBudget):
		return CauseNPCallBudget
	case errors.Is(err, budget.ErrDeadline):
		return CauseDeadline
	case errors.Is(err, budget.ErrCanceled):
		return CauseCanceled
	default:
		return ""
	}
}

// KnownCauseCodes is the closed set of cause codes a 200/incomplete
// response may carry; consumers (load generator, soak cross-check)
// treat anything else as an untyped error.
var KnownCauseCodes = map[string]bool{
	CauseCanceled:           true,
	CauseDeadline:           true,
	CauseConflictBudget:     true,
	CausePropagationBudget:  true,
	CauseNPCallBudget:       true,
	CauseTransientExhausted: true,
}

// KnownStreamCauses is the closed set a StreamDoneRow.Cause may carry.
var KnownStreamCauses = map[string]bool{
	StreamCauseComplete:     true,
	StreamCauseLimit:        true,
	StreamCauseNodeLost:     true,
	ShedClientGone:          true,
	CauseCanceled:           true,
	CauseDeadline:           true,
	CauseConflictBudget:     true,
	CausePropagationBudget:  true,
	CauseNPCallBudget:       true,
	CauseTransientExhausted: true,
}

// VerdictString renders a core.Verdict for the wire ("true", "false",
// "incomplete").
func VerdictString(v core.Verdict) string {
	switch {
	case v.Incomplete:
		return "incomplete"
	case v.Holds:
		return "true"
	default:
		return "false"
	}
}
