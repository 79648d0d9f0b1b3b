package session

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"disjunct/internal/core"
	"disjunct/internal/logic"
	"disjunct/internal/store"
)

// The verdict memo. Every completed verdict, whatever route produced
// it, is remembered on the cached artifact it was asked against, so a
// repeat of the query answers with zero oracle work. The table hangs
// off the artifact: its entries are charged to the artifact's bytes
// as they are added, so the artifact LRU's budget bounds it, and
// evicting the artifact drops it. Two texts with one RawKey keep
// separate tables, since their atom names and clause shapes may differ.
//
// Literal and model verdicts share one bitset per artifact, two bits —
// known and holds — per (semantics index, slot), where slot l is
// literal l and slot 2N is model existence; the encoding is exact.
// Formula verdicts sit in one small map per artifact keyed by
// semantics index and canonical text. Only
// complete verdicts are ever stored.
//
// With a store configured, completed verdicts that cost solver work
// are written behind, and each semantics' persisted verdicts are
// folded into the table the first time that semantics reaches the
// artifact.
type memo struct {
	mu     sync.Mutex
	bits   []uint64 // two bits per (semantics, slot): see bit
	seeded uint64   // semantics (by index) whose persisted verdicts are in
	forms  map[formKey]bool

	// el is the artifact's LRU node while it is cached and nil once it
	// is evicted; guarded by Manager.artMu.
	el *list.Element
}

type formKey struct {
	sem  int
	text string
}

// formEntryBytes is the accounted size of one formula entry beyond its
// text.
const formEntryBytes = 48

// semIndex numbers the registered semantics (sorted by name) for the
// memo's bitset; registration happens in init functions, before any
// query. The seeded mask has room for 64.
var semIndex = sync.OnceValue(func() []string { return core.Names() })

// semID returns the memo index of a semantics name; ok is false for a
// name the core registry does not know.
func semID(name string) (int, bool) {
	names := semIndex()
	i := sort.SearchStrings(names, name)
	return i, i < len(names) && i < 64 && names[i] == name
}

// slot maps a literal or model query onto its slot within one
// semantics; ok is false for formulas and out-of-vocabulary literals.
func slot(comp *Compiled, kind Kind, lit logic.Lit) (int, bool) {
	switch kind {
	case KindModel:
		return 2 * comp.N, true
	case KindLiteral:
		return int(lit), lit >= 0 && int(lit) < 2*comp.N
	}
	return 0, false
}

// bit is the position of the known bit of (semantics, slot); the holds
// bit follows it.
func bit(comp *Compiled, id, s int) int {
	return 2 * (id*(2*comp.N+1) + s)
}

// get looks a query up; the caller holds t.mu.
func (t *memo) get(comp *Compiled, id int, kind Kind, lit logic.Lit, text string) (holds, ok bool) {
	if kind == KindFormula {
		holds, ok = t.forms[formKey{id, text}]
		return holds, ok
	}
	s, inRange := slot(comp, kind, lit)
	if !inRange {
		return false, false
	}
	b := bit(comp, id, s)
	if b/64 >= len(t.bits) || t.bits[b/64]&(1<<(b%64)) == 0 {
		return false, false
	}
	return t.bits[b/64]&(1<<(b%64+1)) != 0, true
}

// put records a verdict unless one is already known, returning the
// bytes added and whether the entry is new; the caller holds t.mu.
func (t *memo) put(comp *Compiled, id int, kind Kind, lit logic.Lit, text string, holds bool) (int64, bool) {
	if kind == KindFormula {
		k := formKey{id, text}
		if _, dup := t.forms[k]; dup {
			return 0, false
		}
		if t.forms == nil {
			t.forms = make(map[formKey]bool)
		}
		t.forms[k] = holds
		return formEntryBytes + int64(len(text)), true
	}
	s, inRange := slot(comp, kind, lit)
	if !inRange {
		return 0, false
	}
	var added int64
	b := bit(comp, id, s)
	if b/64 >= len(t.bits) {
		t.bits = make([]uint64, (bit(comp, len(semIndex()), 0)+63)/64)
		added = 8 * int64(len(t.bits))
	}
	if t.bits[b/64]&(1<<(b%64)) != 0 {
		return added, false
	}
	t.bits[b/64] |= 1 << (b % 64)
	if holds {
		t.bits[b/64] |= 1 << (b%64 + 1)
	}
	return added, true
}

// Recall answers a query from the artifact's verdict memo. ok is false
// when the artifact is not cached or the verdict is not known.
func (m *Manager) Recall(comp *Compiled, req Request) (holds, ok bool) {
	t := comp.memo.Load()
	if t == nil || (req.Kind == KindFormula && req.QueryText == "") {
		return false, false
	}
	id, known := semID(req.Sem)
	if !known {
		return false, false
	}
	t.mu.Lock()
	added := m.seedLocked(t, comp, id, req.Sem)
	holds, ok = t.get(comp, id, req.Kind, req.Lit, req.QueryText)
	t.mu.Unlock()
	m.charge(t, added)
	if ok {
		m.memoHits.Add(1)
		m.warmQueries.Add(1)
	}
	return holds, ok
}

// Remember records a completed verdict in the artifact's memo (when
// the artifact is cached) and, when persist is set and a store is
// configured, writes it behind. Callers pass persist=false for
// verdicts that cost no solver work to re-derive (the fast path).
func (m *Manager) Remember(comp *Compiled, req Request, holds, persist bool) {
	if req.Kind == KindFormula && req.QueryText == "" {
		return
	}
	isNew := true
	if id, known := semID(req.Sem); known {
		if t := comp.memo.Load(); t != nil {
			t.mu.Lock()
			var added int64
			added, isNew = t.put(comp, id, req.Kind, req.Lit, req.QueryText, holds)
			t.mu.Unlock()
			m.charge(t, added)
		}
	}
	if st := m.cfg.Store; persist && isNew && st != nil {
		st.PutVerdict(store.Verdict{Raw: comp.Raw, Sem: req.Sem, MemoKey: memoKey(comp, req.Kind, req.Lit, req.QueryText), Holds: holds})
	}
}

// seedLocked folds the store's verdicts for (artifact, sem) into the
// table the first time sem reaches it, returning the bytes added; the
// caller holds t.mu.
func (m *Manager) seedLocked(t *memo, comp *Compiled, id int, sem string) int64 {
	st := m.cfg.Store
	if st == nil || t.seeded&(1<<id) != 0 {
		return 0
	}
	t.seeded |= 1 << id
	var added, seeded int64
	for key, holds := range st.Verdicts(comp.Raw, sem) {
		if a, ok := t.seedKey(comp, id, key, holds); ok {
			added += a
			seeded++
		}
	}
	m.storeVerdictSeeds.Add(seeded)
	return added
}

// seedKey records one persisted or handed-off verdict; ok reports
// whether the record applies to this artifact and was new.
func (t *memo) seedKey(comp *Compiled, id int, key string, holds bool) (int64, bool) {
	kind, lit, text, ok := parseMemoKey(comp, semIndex()[id], key)
	if !ok {
		return 0, false
	}
	return t.put(comp, id, kind, lit, text, holds)
}

// memoKey is the verdict's name in store records and handoff
// envelopes: "kind|query text", then a NUL and the text digest of the
// artifact it was asked against.
func memoKey(comp *Compiled, kind Kind, lit logic.Lit, text string) string {
	switch kind {
	case KindLiteral:
		text = comp.D.Voc.LitString(lit)
	case KindModel:
		text = ""
	}
	return kind.String() + "|" + text + "\x00" + comp.textDigest()
}

// parseMemoKey inverts memoKey against an artifact asked under sem.
// A key that names another text's digest does not apply. A key
// without a digest was written before digests existed, by the warm
// minimal-model semantics alone, for any text with the artifact's
// RawKey; only its model verdicts are accepted, since a warm
// semantics' model existence is satisfiability of the shared CNF. Its
// literal and formula records name atoms, and texts with one RawKey
// may number their atoms differently ("a. b | c." and "b. a | c."),
// so those are dropped and cost one recompute each.
func parseMemoKey(comp *Compiled, sem, key string) (kind Kind, lit logic.Lit, text string, ok bool) {
	i := strings.IndexByte(key, 0)
	if i >= 0 {
		if key[i+1:] != comp.textDigest() {
			return 0, 0, "", false
		}
		key = key[:i]
	}
	k, text, found := strings.Cut(key, "|")
	if !found {
		return 0, 0, "", false
	}
	if i < 0 && (k != "model" || !warmSems[sem]) {
		return 0, 0, "", false
	}
	switch k {
	case "model":
		return KindModel, 0, "", true
	case "formula":
		return KindFormula, 0, text, text != ""
	case "literal":
		name, neg := strings.CutPrefix(text, "-")
		a, found := comp.D.Voc.Lookup(name)
		if !found {
			return 0, 0, "", false
		}
		return KindLiteral, logic.MkLit(a, !neg), "", true
	}
	return 0, 0, "", false
}

// verdicts lists the table's entries as handoff records, skipping
// queries the fast path answers anyway.
func (t *memo) verdicts(comp *Compiled) []HandoffVerdict {
	names := semIndex()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []HandoffVerdict
	for b := 0; b/64 < len(t.bits); b += 2 {
		if t.bits[b/64]&(1<<(b%64)) == 0 {
			continue
		}
		id, s := (b/2)/(2*comp.N+1), (b/2)%(2*comp.N+1)
		kind, lit := KindLiteral, logic.Lit(s)
		if s == 2*comp.N {
			kind, lit = KindModel, 0
		}
		if FastEligible(comp, names[id], kind) {
			continue
		}
		out = append(out, HandoffVerdict{
			Raw: comp.Raw, Sem: names[id], MemoKey: memoKey(comp, kind, lit, ""),
			Holds: t.bits[b/64]&(1<<(b%64+1)) != 0,
		})
	}
	for k, holds := range t.forms {
		if FastEligible(comp, names[k.sem], KindFormula) {
			continue
		}
		out = append(out, HandoffVerdict{
			Raw: comp.Raw, Sem: names[k.sem], MemoKey: memoKey(comp, KindFormula, 0, k.text), Holds: holds,
		})
	}
	return out
}

// charge adds a memo's growth to its artifact's accounted bytes and
// enforces the byte budget; an evicted artifact's memo is not charged.
func (m *Manager) charge(t *memo, n int64) {
	if n == 0 {
		return
	}
	m.artMu.Lock()
	if t.el != nil {
		t.el.Value.(*artNode).bytes += n
		m.artBytes += n
		m.evictLocked()
	}
	m.artMu.Unlock()
}
