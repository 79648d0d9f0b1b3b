package session

import (
	"fmt"

	"disjunct/internal/db"
	"disjunct/internal/store"
)

// Prewarm loads every persisted compiled-DB artifact from the store
// into the compile cache before the process starts taking traffic:
// each entry's database text is re-parsed and recompiled (polynomial)
// and its fragment cross-checked against the record — so a pre-warmed
// restart answers hot-DB queries with zero cold compiles. Verdict
// memos are not materialized here; each semantics' persisted verdicts
// fold into an artifact's memo when that semantics first reaches it.
//
// Damaged or stale entries are skipped, not fatal: the store's
// recovery already dropped torn records, and anything skipped here is
// simply re-derived on first use, exactly as on a cold start. The
// returned count is the number of artifacts loaded; the error is
// non-nil only when the manager has no store.
func (m *Manager) Prewarm() (int, error) {
	st := m.cfg.Store
	if st == nil {
		return 0, fmt.Errorf("session: Prewarm without a configured store")
	}
	loaded := 0
	for _, a := range st.Artifacts() {
		d, err := db.Parse(a.Text)
		if err != nil {
			continue // stale grammar or foreign record: re-derive on demand
		}
		comp := Compile(a.Text, d)
		if uint8(comp.Frag) != a.Frag {
			continue // predates a compiler change: re-derive on demand
		}
		m.insert(comp)
		m.prewarmedArtifacts.Add(1)
		loaded++
	}
	return loaded, nil
}

// Store returns the configured persistent tier (nil when disabled) —
// the serve layer uses it for drain flushing and health reporting.
func (m *Manager) Store() *store.Store {
	return m.cfg.Store
}
