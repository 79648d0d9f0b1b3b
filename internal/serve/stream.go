package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/session"
)

// handleStream serves POST /v1/models/stream: NDJSON enumeration of a
// database's models (or minimal models) through the pull-based model
// iterators. Rows flush as they are produced, so time-to-first-model
// is one SAT solve, not a full enumeration. Every stream — including
// interrupted ones — ends with a terminal StreamDoneRow whose Cause is
// typed: "complete", "limit", a budget cause code, "canceled" (drain),
// or "client_gone" (the client hung up mid-stream). Client
// disconnects are the client's doing, not the server's: they bump
// stream_client_gone and never touch the per-semantics breakers
// (streams carry no semantics and never record breaker outcomes at
// all). Streams observe drainCtx rather than the drain-deadline
// baseCtx: an unbounded enumeration must stop when drain BEGINS, or
// Drain would block on it for the full timeout.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.stats.shedDraining.Add(1)
		writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		return
	}
	var req StreamRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "body: " + err.Error()})
		return
	}
	kind := req.Kind
	if kind == "" {
		kind = "models"
	}
	if kind != "models" && kind != "minimal" {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "kind: " + req.Kind})
		return
	}
	var comp *session.Compiled
	var d *db.DB
	if s.sessions != nil {
		if c, ok := s.sessions.Lookup(req.DB); ok {
			comp, d = c, c.D
		}
	}
	if d == nil {
		parsed, err := db.Parse(req.DB)
		if err != nil {
			s.stats.badRequest.Add(1)
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "db: " + err.Error()})
			return
		}
		d = parsed
		if s.sessions != nil {
			comp = s.sessions.Intern(req.DB, d)
			d = comp.D
		}
	}
	if d.N() == 0 {
		s.stats.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "db: empty vocabulary"})
		return
	}
	eff := clamp(req.Limits.ToLimits(), s.cfg.Ceilings)
	limit := req.Limit
	if s.cfg.StreamMaxModels > 0 && (limit <= 0 || limit > s.cfg.StreamMaxModels) {
		limit = s.cfg.StreamMaxModels
	}

	if !s.register() {
		s.stats.shedDraining.Add(1)
		writeShed(w, http.StatusServiceUnavailable, ErrorResponse{Error: ShedDraining})
		return
	}
	defer s.wg.Done()
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
	s.stats.streams.Add(1)

	// The stream context: client connection + drain-begin (NOT the
	// drain deadline — see the handler comment).
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.drainCtx, func() { cancel(context.Cause(s.drainCtx)) })
	defer stop()
	if s.drainCtx.Err() != nil {
		cancel(context.Cause(s.drainCtx))
	}

	b := budget.New(ctx, eff)
	o := oracle.NewNP().WithBudget(b)
	// No fault injection on streams: an injected mid-stream failure
	// would be indistinguishable from a genuine interruption to the
	// consumer, and streams don't participate in retry/breaker logic.
	var eng *models.Engine
	if comp != nil {
		eng = models.NewEngineCNF(comp.D.N(), o, comp.CNF)
	} else {
		eng = models.NewEngine(d, o)
	}
	var it models.ModelIterator
	switch {
	case kind == "models" && req.Parallel:
		it = eng.IterateModelsPar(limit, models.ParOptions{})
	case kind == "models":
		it = eng.IterateModels(limit)
	case req.Parallel:
		it = eng.IterateMinimalModelsPar(limit, models.ParOptions{})
	default:
		it = eng.IterateMinimalModels(limit)
	}
	defer it.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies: do not buffer
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	start := time.Now()
	var count int
	var firstMS float64
	cause := ""
	for {
		m, err := it.Next(ctx)
		if err != nil {
			cause = s.streamCause(err, r)
			break
		}
		if writeErr := enc.Encode(StreamModelRow{Model: modelAtoms(m, d.Voc)}); writeErr != nil {
			// The pipe broke mid-row: the consumer is gone. Keep the
			// taxonomy honest even though the terminal record below will
			// likely go unread.
			cause = ShedClientGone
			s.stats.streamClientGone.Add(1)
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
		if count == 0 {
			firstMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
		count++
	}
	s.stats.streamModels.Add(int64(count))

	done := StreamDoneRow{
		Done:         true,
		Cause:        cause,
		Count:        count,
		Counters:     CountersFrom(o.Counters()),
		Limits:       LimitsFrom(eff),
		FirstModelMS: firstMS,
		TotalMS:      float64(time.Since(start)) / float64(time.Millisecond),
	}
	if enc.Encode(done) == nil && flusher != nil {
		flusher.Flush()
	}
}

// streamCause maps an iterator terminal error onto the stream cause
// taxonomy. A cancellation whose root is the client's own connection
// (and not a server drain) is classified client_gone.
func (s *Server) streamCause(err error, r *http.Request) string {
	switch {
	case errors.Is(err, io.EOF):
		return StreamCauseComplete
	case errors.Is(err, models.ErrLimit):
		return StreamCauseLimit
	}
	if errors.Is(err, budget.ErrCanceled) && r.Context().Err() != nil && !s.draining.Load() {
		s.stats.streamClientGone.Add(1)
		return ShedClientGone
	}
	if code := CauseCode(err); code != "" {
		return code
	}
	return CauseCanceled
}

// modelAtoms renders an interpretation as its true atoms in vocabulary
// order. The empty model is an empty (non-nil) slice, so the NDJSON
// row always carries a JSON array.
func modelAtoms(m logic.Interp, voc *logic.Vocabulary) []string {
	atoms := []string{}
	for v := 0; v < voc.Size(); v++ {
		if m.Holds(logic.Atom(v)) {
			atoms = append(atoms, voc.Name(logic.Atom(v)))
		}
	}
	return atoms
}
