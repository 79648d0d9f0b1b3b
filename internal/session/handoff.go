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
// verdicts go straight into the memos of the artifacts they name.
// Handoff is an optimization with a safety net, never a
// correctness dependency: a dropped artifact recompiles cold, a
// dropped verdict recomputes — verdict identity is gated separately.

// HandoffArtifact is one compiled database in transit.
type HandoffArtifact struct {
	Text string `json:"text"`
	Raw  string `json:"raw"`
	Frag uint8  `json:"frag"`
}

// HandoffVerdict is one completed verdict in transit. MemoKey is
// "kind|query text", then a NUL and the digest of the database text it
// was asked against; envelopes written before digests existed omit
// both, and carry warm minimal-model verdicts only.
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
// every verdict in their memos (the fast path's own answers aside),
// and the whole persisted verdict corpus when a store is configured.
func (m *Manager) Export() Handoff {
	var h Handoff
	m.artMu.Lock()
	comps := make([]*Compiled, 0, m.artList.Len())
	for el := m.artList.Front(); el != nil; el = el.Next() {
		comps = append(comps, el.Value.(*artNode).comp)
	}
	m.artMu.Unlock()

	for _, comp := range comps {
		h.Artifacts = append(h.Artifacts, HandoffArtifact{Text: comp.Text, Raw: comp.Raw, Frag: uint8(comp.Frag)})
		if t := comp.memo.Load(); t != nil {
			h.Verdicts = append(h.Verdicts, t.verdicts(comp)...)
		}
	}
	if st := m.cfg.Store; st != nil {
		type key struct{ raw, sem, memoKey string }
		have := make(map[key]bool, len(h.Verdicts))
		for _, v := range h.Verdicts {
			have[key{v.Raw, v.Sem, v.MemoKey}] = true
		}
		for _, v := range st.AllVerdicts() {
			if !have[key{v.Raw, v.Sem, v.MemoKey}] {
				h.Verdicts = append(h.Verdicts, HandoffVerdict{Raw: v.Raw, Sem: v.Sem, MemoKey: v.MemoKey, Holds: v.Holds})
			}
		}
	}
	return h
}

// Import absorbs an exported slice of another worker's warm state.
// Artifacts re-parse and recompile (the Prewarm path: polynomial, with
// a fingerprint and fragment cross-check that rejects records from a
// different compiler vintage) and are cached at once. Verdicts go
// straight into the memos of the cached artifacts they name — by
// fingerprint, and by text digest where the record carries one. Both
// kinds are also written through to the local store when one is
// configured, so the handed-off state survives this process too, and a
// verdict whose artifact is not cached here seeds it from the store
// later. Returns the counts of artifacts and verdicts accepted.
func (m *Manager) Import(h Handoff) (arts, verds int) {
	st := m.cfg.Store
	for _, a := range h.Artifacts {
		d, err := db.Parse(a.Text)
		if err != nil {
			continue // foreign grammar vintage: successor re-derives on demand
		}
		comp := Compile(a.Text, d)
		if uint8(comp.Frag) != a.Frag || comp.Raw != a.Raw {
			continue // stale record: re-derive on demand
		}
		m.insert(comp)
		m.prewarmedArtifacts.Add(1)
		if st != nil {
			st.PutArtifact(store.Artifact{Text: a.Text, Frag: a.Frag})
		}
		arts++
	}

	byRaw := make(map[string][]*Compiled)
	m.artMu.Lock()
	for el := m.artList.Front(); el != nil; el = el.Next() {
		comp := el.Value.(*artNode).comp
		byRaw[comp.Raw] = append(byRaw[comp.Raw], comp)
	}
	m.artMu.Unlock()
	for _, v := range h.Verdicts {
		accepted := st != nil
		id, known := semID(v.Sem)
		for _, comp := range byRaw[v.Raw] {
			t := comp.memo.Load()
			if t == nil || !known {
				continue
			}
			t.mu.Lock()
			added, ok := t.seedKey(comp, id, v.MemoKey, v.Holds)
			t.mu.Unlock()
			m.charge(t, added)
			if ok {
				m.storeVerdictSeeds.Add(1)
				accepted = true
			}
		}
		if st != nil {
			st.PutVerdict(store.Verdict{Raw: v.Raw, Sem: v.Sem, MemoKey: v.MemoKey, Holds: v.Holds})
		}
		if accepted {
			verds++
		}
	}
	return arts, verds
}
