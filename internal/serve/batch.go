package serve

import (
	"net/http"
	"strconv"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/session"
)

// handleBatch serves POST /v1/batch: many queries against one
// database, amortizing everything per-request traffic pays per query —
// the database is parsed/compiled/interned ONCE, the batch occupies
// ONE admission slot, and (with the session layer on) each
// (database, semantics) group of warm-eligible queries runs on ONE
// session checkout. The batch planner partitions by fragment class:
// fixpoint fast-path queries are answered immediately with zero NP
// calls, warm-family queries pipeline through the session engine, and
// the rest run the fresh per-attempt path. Per-query outcomes carry
// the same typed taxonomy a standalone request would have received —
// an invalid or breaker-shed query becomes an error entry, never a
// wholesale batch failure. Verdicts are identical to sequential
// requests by construction (benchgate gates NP-total equality).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.readBody(w, r, 4<<20, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.reject(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "queries: empty"})
		return
	}
	if len(req.Queries) > s.cfg.BatchMaxQueries {
		s.reject(w, http.StatusBadRequest, ErrorResponse{
			Error:  ReasonBatchTooLarge,
			Detail: "batch carries " + strconv.Itoa(len(req.Queries)) + " queries, cap " + strconv.Itoa(s.cfg.BatchMaxQueries),
		})
		return
	}

	// Shared compile: one parse + artifact per batch, whatever the
	// query count. With sessions on the artifact comes from (or enters)
	// the compiled-DB cache; without, it is built batch-locally so the
	// fragment partitioning still works.
	compileStart := time.Now()
	comp, d, ok := s.loadDB(w, req.DB)
	if !ok {
		return
	}
	if comp == nil {
		comp = session.Compile(req.DB, d)
	}
	compileMS := float64(time.Since(compileStart)) / float64(time.Millisecond)
	eff := clamp(req.Limits.ToLimits(), s.cfg.Ceilings)

	// Per-query validation: malformed entries become error items; the
	// valid remainder proceeds.
	results := make([]BatchItem, len(req.Queries))
	type job struct {
		idx  int
		kind string
		pq   parsedQuery
	}
	var jobs []job
	for i, q := range req.Queries {
		results[i].Index = i
		semName := q.Semantics
		if semName == "" {
			semName = req.Semantics
		}
		if _, ok := core.InfoFor(semName); !ok {
			results[i].Error = &ErrorResponse{Error: ReasonUnknownSemantics, Semantics: semName}
			continue
		}
		kind := q.Kind
		if kind == "" {
			switch {
			case q.Literal != "":
				kind = "literal"
			case q.Formula != "":
				kind = "formula"
			default:
				kind = "model"
			}
		}
		pq := parsedQuery{semName: semName, d: d, eff: eff, comp: comp}
		if err := pq.parseQuery(kind, q.Literal, q.Formula); err != nil {
			results[i].Error = &ErrorResponse{Error: ReasonBadRequest, Detail: err.Error()}
			continue
		}
		jobs = append(jobs, job{idx: i, kind: kind, pq: pq})
	}

	// One admission slot for the whole batch: the queue sees a batch as
	// a single unit of work (multi-query accounting happens in the
	// batch_queries counter, not the queue).
	res := s.enter(w, r, eff.Deadline)
	if res.shed != "" {
		return
	}
	defer s.leave()
	s.stats.batchRequests.Add(1)
	s.stats.batchQueries.Add(int64(len(req.Queries)))

	// Breaker gate, once per distinct semantics. A batch never acts as
	// a half-open probe (a claimed probe slot is returned immediately):
	// probing stays the job of single requests, so one slow batch can't
	// wedge a breaker half-open.
	breakers := map[string]*breaker{}
	shedSems := map[string]int64{}
	for _, j := range jobs {
		if _, seen := breakers[j.pq.semName]; seen {
			continue
		}
		br := s.breakerFor(j.pq.semName)
		breakers[j.pq.semName] = br
		ok, probe, retryAfter := br.allow()
		if probe {
			br.cancelProbe()
		}
		if !ok {
			shedSems[j.pq.semName] = retryAfterMS(retryAfter)
		}
	}
	var runnable []job
	for _, j := range jobs {
		if retryMS, shed := shedSems[j.pq.semName]; shed {
			s.stats.shedBreaker.Add(1)
			results[j.idx].Error = &ErrorResponse{
				Error: ShedBreakerOpen, Semantics: j.pq.semName, RetryAfterMS: retryMS,
			}
			continue
		}
		runnable = append(runnable, j)
	}

	// The per-query budgets observe both the client connection and the
	// server's drain deadline, exactly as standalone requests do.
	ctx, l := linkCtx(r.Context(), s.baseCtx)
	defer l.unlink()

	// Session pass: memo hits and fast-path queries answer inline;
	// warm-eligible queries run back-to-back on the database's one
	// engine checkout. Leftovers
	// (and everything, with sessions off beyond the fast path) take the
	// fresh per-attempt path.
	pending := runnable
	if s.sessions != nil {
		reqs := make([]session.Request, len(runnable))
		starts := make([]time.Time, len(runnable))
		for i, j := range runnable {
			starts[i] = time.Now()
			reqs[i] = j.pq.sessionRequest(j.kind, budget.New(ctx, eff))
		}
		outcomes := s.sessions.Batch(ctx, comp, reqs)
		pending = pending[:0]
		for i, out := range outcomes {
			j := runnable[i]
			if !out.Handled {
				pending = append(pending, j)
				continue
			}
			resp := sessionResponse(j.kind, j.pq, out.Res, starts[i])
			results[j.idx].Response = &resp
		}
	} else {
		pending = pending[:0]
		for _, j := range runnable {
			holds, ok := session.FastVerdict(comp, j.pq.semName, sessionKind(j.kind), j.pq.lit, j.pq.formula)
			if !ok {
				pending = append(pending, j)
				continue
			}
			resp := sessionResponse(j.kind, j.pq, session.Result{Holds: holds, Path: "fast"}, time.Now())
			results[j.idx].Response = &resp
		}
	}

	// Fresh pass. comp is nil-ed so execute doesn't re-offer the query
	// to the session layer (it was already declined or the layer is
	// off); behavior is then identical to a standalone fresh request.
	for _, j := range pending {
		j.pq.comp = nil
		resp, semErr := s.execute(r.Context(), j.kind, j.pq)
		if semErr != nil {
			e := semanticError(j.pq.semName, semErr)
			results[j.idx].Error = &e
			continue
		}
		results[j.idx].Response = &resp
	}
	for _, j := range runnable {
		if resp := results[j.idx].Response; resp != nil {
			s.remember(comp, j.kind, j.pq, *resp)
		}
	}

	// Outcome accounting: per-query stats and breaker records, shared
	// queue wait reported once.
	out := BatchResponse{
		Queries:   len(req.Queries),
		CompileMS: compileMS,
		QueueMS:   float64(res.waited) / float64(time.Millisecond),
		Paths:     map[string]int{},
		Results:   results,
	}
	for i := range results {
		switch {
		case results[i].Response != nil:
			resp := results[i].Response
			if resp.Incomplete {
				out.Incomplete++
				s.stats.incomplete.Add(1)
			} else {
				out.Completed++
				s.stats.completed.Add(1)
			}
			path := resp.Path
			if path == "" {
				path = "fresh"
			}
			out.Paths[path]++
			if br := breakers[resp.Semantics]; br != nil {
				br.record(resp.Incomplete && infrastructureFailure(resp.CauseCode))
			}
		case results[i].Error != nil:
			out.Errored++
			if results[i].Error.Error != ShedBreakerOpen {
				s.stats.badRequest.Add(1)
			}
			if results[i].Error.Error == ReasonUnsupported || results[i].Error.Error == ReasonNotStratifiable {
				if br := breakers[results[i].Error.Semantics]; br != nil {
					br.record(false)
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// sessionKind maps the wire kind onto the session layer's enum.
func sessionKind(kind string) session.Kind {
	switch kind {
	case "literal":
		return session.KindLiteral
	case "formula":
		return session.KindFormula
	default:
		return session.KindModel
	}
}
