package session

import (
	"disjunct/internal/db"
	"disjunct/internal/store"
)

// Cluster drain handoff: when a worker leaves the ring gracefully, its
// warm state — compiled artifacts and completed verdict memos — is
// worth shipping to the ring successors rather than discarding,
// because recomputing it costs NP/Σ₂ᵖ solver time. Export snapshots
// that state as plain data; Import rebuilds it on the successor:
// artifacts are recompiled from text and cross-checked against the
// shipped fingerprint and fragment (exactly like Prewarm), and
// verdicts are staged as pending seeds that the next warm-session
// creation for their (fingerprint, semantics) pair folds into its
// memo. Handoff is an optimization with a safety net, never a
// correctness dependency: a dropped artifact recompiles cold, a
// dropped verdict recomputes — verdict identity is gated separately.

// HandoffArtifact is one compiled database in transit.
type HandoffArtifact struct {
	Text string `json:"text"`
	Raw  string `json:"raw"`
	Frag uint8  `json:"frag"`
}

// HandoffVerdict is one completed warm verdict in transit.
type HandoffVerdict struct {
	Raw     string `json:"raw"`
	Sem     string `json:"sem"`
	MemoKey string `json:"memo_key"`
	Holds   bool   `json:"holds"`
}

// HandoffEstimate is one planner cost-model entry in transit: the
// commutative sums of the internal/plan estimator, mirrored as plain
// data here so the session layer needn't import the planner. The serve
// layer fills and consumes the slice; Export/Import below never touch
// it (the Manager holds no estimates).
type HandoffEstimate struct {
	Raw       string `json:"raw"`
	Sem       string `json:"sem"`
	Count     int64  `json:"count"`
	SumNP     int64  `json:"sum_np"`
	SumConfl  int64  `json:"sum_confl"`
	SumMicros int64  `json:"sum_micros"`
}

// Handoff is a worker's exportable warm state.
type Handoff struct {
	Artifacts []HandoffArtifact `json:"artifacts"`
	Verdicts  []HandoffVerdict  `json:"verdicts"`
	Estimates []HandoffEstimate `json:"estimates,omitempty"`
}

// Export snapshots the manager's warm state: every cached artifact,
// and every completed verdict reachable without blocking — resident
// session memos whose engine token is free right now, plus the whole
// persisted corpus when a store is configured. A session that is
// mid-query is skipped rather than waited on (its completed verdicts
// are already in the store if one exists; without one, those few
// verdicts recompute on the successor).
func (m *Manager) Export() Handoff {
	var h Handoff

	m.artMu.Lock()
	for el := m.artList.Front(); el != nil; el = el.Next() {
		an := el.Value.(*artNode)
		h.Artifacts = append(h.Artifacts, HandoffArtifact{
			Text: an.text,
			Raw:  an.comp.Raw,
			Frag: uint8(an.comp.Frag),
		})
	}
	m.artMu.Unlock()

	seen := make(map[string]bool)
	addVerdict := func(v HandoffVerdict) {
		k := v.Raw + "\x00" + v.Sem + "\x00" + v.MemoKey
		if !seen[k] {
			seen[k] = true
			h.Verdicts = append(h.Verdicts, v)
		}
	}

	m.sessMu.Lock()
	sessions := make([]*warmSession, 0, m.sessList.Len())
	for el := m.sessList.Front(); el != nil; el = el.Next() {
		sessions = append(sessions, el.Value.(*warmSession))
	}
	m.sessMu.Unlock()
	for _, s := range sessions {
		select {
		case st := <-s.slot:
			for memoKey, holds := range st.memo {
				addVerdict(HandoffVerdict{Raw: s.key.raw, Sem: s.key.sem, MemoKey: memoKey, Holds: holds})
			}
			s.slot <- st
		default:
			// busy mid-query: skip, don't block the drain
		}
	}

	if st := m.cfg.Store; st != nil {
		for _, v := range st.AllVerdicts() {
			addVerdict(HandoffVerdict{Raw: v.Raw, Sem: v.Sem, MemoKey: v.MemoKey, Holds: v.Holds})
		}
	}
	return h
}

// Import absorbs an exported slice of another worker's warm state.
// Artifacts re-parse and recompile (the Prewarm path: polynomial, with
// a fingerprint and fragment cross-check that rejects records from a
// different compiler vintage). Verdicts land in the pending-seed
// staging area keyed by (fingerprint, semantics); the next session()
// for that pair folds them into its memo. Both kinds
// are also written through to the local store when one is configured,
// so the handed-off state survives this process too. Returns the
// counts of artifacts and verdicts accepted.
func (m *Manager) Import(h Handoff) (arts, verds int) {
	for _, a := range h.Artifacts {
		d, err := db.Parse(a.Text)
		if err != nil {
			continue // foreign grammar vintage: successor re-derives on demand
		}
		comp := Compile(a.Text, d)
		if uint8(comp.Frag) != a.Frag || comp.Raw != a.Raw {
			continue // stale record: re-derive on demand
		}
		m.insert(a.Text, comp)
		m.prewarmedArtifacts.Add(1)
		if st := m.cfg.Store; st != nil {
			st.PutArtifact(store.Artifact{Text: a.Text, Frag: a.Frag})
		}
		arts++
	}

	m.sessMu.Lock()
	if m.pendingSeeds == nil {
		m.pendingSeeds = make(map[sessKey]map[string]bool)
	}
	for _, v := range h.Verdicts {
		key := sessKey{raw: v.Raw, sem: v.Sem}
		if el, ok := m.sessions[key]; ok {
			// The pair already has a live session: merge directly if its
			// token is free; a busy session just recomputes the few
			// verdicts it never sees.
			s := el.Value.(*warmSession)
			select {
			case st := <-s.slot:
				if _, dup := st.memo[v.MemoKey]; !dup {
					st.memo[v.MemoKey] = v.Holds
					verds++
				}
				s.slot <- st
			default:
			}
		} else {
			pend := m.pendingSeeds[key]
			if pend == nil {
				pend = make(map[string]bool)
				m.pendingSeeds[key] = pend
			}
			if _, dup := pend[v.MemoKey]; !dup {
				pend[v.MemoKey] = v.Holds
				verds++
			}
		}
		if st := m.cfg.Store; st != nil {
			st.PutVerdict(store.Verdict{Raw: v.Raw, Sem: v.Sem, MemoKey: v.MemoKey, Holds: v.Holds})
		}
	}
	m.sessMu.Unlock()
	return arts, verds
}
