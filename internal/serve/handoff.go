package serve

import (
	"net/http"

	"disjunct/internal/keyspace"
	"disjunct/internal/session"
)

// Cluster handoff endpoints. A draining worker's warm state — compiled
// artifacts and completed verdict memos — is exported by the router
// and imported into the ring successors before the ring flips, so a
// graceful departure costs the cluster no recomputation. Both
// endpoints are cluster-internal: they exist on every worker but are
// only called by the router's drain orchestration.
//
// Export keeps working while the worker is draining (that is exactly
// when the router calls it): it flushes the store first so the
// snapshot includes every write-behind, then dumps the session layer.
// Import goes through the front door's readBody: it is refused during
// drain — a departing worker must not accept state it is about to
// discard — and a malformed body is a counted 400. Every 4xx either
// endpoint answers is counted in /healthz bad_request.

// HandoffImportResponse reports what an import accepted.
type HandoffImportResponse struct {
	Artifacts int `json:"artifacts"`
	Verdicts  int `json:"verdicts"`
}

func (s *Server) handleHandoffExport(w http.ResponseWriter, r *http.Request) {
	if s.sessions == nil {
		s.reject(w, http.StatusNotFound, ErrorResponse{
			Error: ReasonBadRequest, Detail: "session layer disabled; nothing to hand off",
		})
		return
	}
	// ?ranges=lo-hi,lo-hi (hex) restricts the export to a keyspace
	// slice — the warm-join path, where a donor ships only the arcs the
	// joining node will own. The slice membership test hashes the same
	// raw fingerprint the router routes on, so donor and router agree
	// exactly on which keys move. A malformed slice is a typed 400,
	// never a guess: exporting the wrong slice would silently violate
	// the join's zero-cold-compile contract.
	var ranges keyspace.Ranges
	if raw := r.URL.Query().Get("ranges"); raw != "" {
		var err error
		ranges, err = keyspace.ParseRanges(raw)
		if err != nil {
			s.reject(w, http.StatusBadRequest, ErrorResponse{
				Error: ReasonBadRequest, Detail: err.Error(),
			})
			return
		}
	}
	if s.store != nil {
		s.store.Flush()
	}
	h := s.sessions.Export()
	if ranges != nil {
		h = h.Keep(ranges.ContainsKey)
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleHandoffImport(w http.ResponseWriter, r *http.Request) {
	if s.sessions == nil {
		s.reject(w, http.StatusNotFound, ErrorResponse{
			Error: ReasonBadRequest, Detail: "session layer disabled; cannot import",
		})
		return
	}
	var h session.Handoff
	if !s.readBody(w, r, 64<<20, &h) {
		return
	}
	arts, verds := s.sessions.Import(h)
	writeJSON(w, http.StatusOK, HandoffImportResponse{Artifacts: arts, Verdicts: verds})
}
