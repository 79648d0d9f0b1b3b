package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
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
	if s.draining.Load() {
		s.stats.shedDraining.Add(1)
		writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "body: " + err.Error()})
		return
	}
	if len(req.Queries) == 0 {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "queries: empty"})
		return
	}
	if len(req.Queries) > s.cfg.BatchMaxQueries {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
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
	var comp *session.Compiled
	if s.sessions != nil {
		if c, ok := s.sessions.Lookup(req.DB); ok {
			comp = c
		}
	}
	if comp == nil {
		parsed, err := db.Parse(req.DB)
		if err != nil {
			s.stats.badRequest.Add(1)
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "db: " + err.Error()})
			return
		}
		if s.sessions != nil {
			comp = s.sessions.Intern(req.DB, parsed)
		} else {
			comp = session.Compile(req.DB, parsed)
		}
	}
	d := comp.D
	if d.N() == 0 {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "db: empty vocabulary"})
		return
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
		pq := parsedQuery{semName: semName, d: d, eff: eff, comp: comp, dbText: req.DB}
		switch kind {
		case "literal":
			lit, err := parseLiteral(q.Literal, d.Voc)
			if err != nil {
				results[i].Error = &ErrorResponse{Error: ReasonBadRequest, Detail: "literal: " + err.Error()}
				continue
			}
			pq.lit, pq.qtext = lit, d.Voc.LitString(lit)
		case "formula":
			f, err := logic.ParseFormula(q.Formula, d.Voc)
			if err != nil {
				results[i].Error = &ErrorResponse{Error: ReasonBadRequest, Detail: "formula: " + err.Error()}
				continue
			}
			pq.formula, pq.qtext = f, f.String(d.Voc)
		case "model":
		default:
			results[i].Error = &ErrorResponse{Error: ReasonBadRequest, Detail: "kind: " + q.Kind}
			continue
		}
		jobs = append(jobs, job{idx: i, kind: kind, pq: pq})
	}

	if !s.register() {
		s.stats.shedDraining.Add(1)
		writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		return
	}
	defer s.wg.Done()

	// One admission slot for the whole batch: the queue sees a batch as
	// a single unit of work (multi-query accounting happens in the
	// batch_queries counter, not the queue).
	admCtx := r.Context()
	if eff.Deadline > 0 {
		var cancel context.CancelFunc
		admCtx, cancel = context.WithTimeout(admCtx, eff.Deadline)
		defer cancel()
	}
	res := s.adm.admit(s.drainCtx, admCtx)
	if res.shed != "" {
		switch res.shed {
		case ShedQueueFull:
			s.stats.shedQueueFull.Add(1)
			writeShed(w, http.StatusTooManyRequests, ErrorResponse{Error: ShedQueueFull, RetryAfterMS: 50})
		case ShedQueueWait:
			s.stats.shedQueueWait.Add(1)
			writeShed(w, http.StatusTooManyRequests, ErrorResponse{Error: ShedQueueWait, RetryAfterMS: 50})
		case ShedClientGone:
			s.stats.shedClientGone.Add(1)
			writeShed(w, statusClientClosedRequest, ErrorResponse{Error: ShedClientGone})
		default:
			s.stats.shedDraining.Add(1)
			writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		}
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	defer res.release()
	if s.testHook != nil {
		s.testHook()
	}
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
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stop()
	if s.baseCtx.Err() != nil {
		cancel(context.Cause(s.baseCtx))
	}

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
			reason := ReasonUnsupported
			if errors.Is(semErr, core.ErrNotStratifiable) {
				reason = ReasonNotStratifiable
			}
			results[j.idx].Error = &ErrorResponse{
				Error: reason, Semantics: j.pq.semName, Detail: semErr.Error(),
			}
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
