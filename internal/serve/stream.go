package serve

import (
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
	"disjunct/internal/strat"
)

// handleStream serves POST /v1/models/stream: NDJSON enumeration of a
// database's models (or minimal models) through the pull-based model
// iterators. Rows flush as they are produced, so time-to-first-model
// is one SAT solve, not a full enumeration. A serial minimal-model
// stream on a head-cycle-free database takes
// models.IterateMinimalModelsHCF: one NP call per model plus one, the
// same model set in another order. Every stream — including
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
	var req StreamRequest
	if !s.readBody(w, r, 1<<20, &req) {
		return
	}
	kind := req.Kind
	if kind == "" {
		kind = "models"
	}
	if kind != "models" && kind != "minimal" {
		s.reject(w, http.StatusBadRequest, ErrorResponse{Error: ReasonBadRequest, Detail: "kind: " + req.Kind})
		return
	}
	comp, d, ok := s.loadDB(w, req.DB)
	if !ok {
		return
	}
	eff := clamp(req.Limits.ToLimits(), s.cfg.Ceilings)
	limit := req.Limit
	if s.cfg.StreamMaxModels > 0 && (limit <= 0 || limit > s.cfg.StreamMaxModels) {
		limit = s.cfg.StreamMaxModels
	}

	res := s.enter(w, r, eff.Deadline)
	if res.shed != "" {
		return
	}
	defer s.leave()
	s.stats.streams.Add(1)

	// The stream context: client connection + drain-begin (NOT the
	// drain deadline — see the handler comment).
	ctx, l := linkCtx(r.Context(), s.drainCtx)
	defer l.unlink()

	b := budget.New(ctx, eff)
	o := oracle.NewNP().WithBudget(b)
	// No fault injection on streams: an injected mid-stream failure
	// would be indistinguishable from a genuine interruption to the
	// consumer, and streams don't participate in retry/breaker logic.
	var it models.ModelIterator
	if kind == "minimal" && !req.Parallel && headCycleFree(comp, d) {
		// One NP call per model: the stable models of the shifted
		// program are the minimal models (strat.HeadCycleFree).
		s.stats.streamHCF.Add(1)
		it = models.IterateMinimalModelsHCF(d, o, limit)
	} else {
		var eng *models.Engine
		if comp != nil {
			eng = models.NewEngineCNF(comp.D.N(), o, comp.CNF)
		} else {
			eng = models.NewEngine(d, o)
		}
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

// headCycleFree reports whether d is head-cycle-free, from the
// artifact's cached bit when there is an artifact.
func headCycleFree(comp *session.Compiled, d *db.DB) bool {
	if comp != nil {
		return comp.HeadCycleFree()
	}
	return strat.HeadCycleFree(d)
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
