package session

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/store"
)

// Kind selects one of the three decision problems.
type Kind int

const (
	KindLiteral Kind = iota
	KindFormula
	KindModel
)

// String names the kind for memo keys and stats.
func (k Kind) String() string {
	switch k {
	case KindLiteral:
		return "literal"
	case KindFormula:
		return "formula"
	default:
		return "model"
	}
}

// warmSems is the minimal-model family served by warm incremental
// sessions (under the default full-minimisation partition): their
// literal queries — and for the E-family also formula queries — reduce
// to MM(DB) ⊨ F, which IncrementalEngine.MMEntails answers on the
// shared solver. GCWA/CCWA formula inference is closure-based and does
// NOT coincide with MMEntails (e.g. DB = {a∨b} minimally entails
// ¬a∨¬b but its GCWA closure does not), so those fall through fresh.
var warmSems = map[string]bool{
	"GCWA": true, "CCWA": true, "EGCWA": true, "ECWA": true, "CIRC": true,
}

var warmFormulaSems = map[string]bool{
	"EGCWA": true, "ECWA": true, "CIRC": true,
}

// Config tunes the manager. Zero values select the defaults.
type Config struct {
	// MaxBytes is the compiled-artifact LRU budget (default 64 MiB).
	MaxBytes int64
	// MaxSessions bounds the warm sessions kept across all (DB,
	// semantics) pairs (default 64).
	MaxSessions int
	// MaxQueriesPerSession retires a session's engine after this many
	// warm queries, bounding activation-variable and learned-clause
	// growth (default 512). The verdict memo survives retirement.
	MaxQueriesPerSession int
	// MaxVars retires the engine when the shared solver's variable
	// count exceeds it (default 1 << 16).
	MaxVars int
	// BatchWindow is the longest a request waits for a busy session
	// before falling back to the fresh path — the micro-batch window:
	// same-DB queries arriving within it execute back-to-back on one
	// checked-out engine (default 2ms).
	BatchWindow time.Duration
	// Store is the optional disk-backed tier: compile misses are
	// checked against it, fresh compiles and completed warm verdicts are
	// written behind, and Prewarm loads it wholesale. Nil disables
	// persistence.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxQueriesPerSession <= 0 {
		c.MaxQueriesPerSession = 512
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 1 << 16
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	return c
}

// Stats is a snapshot of the manager's counters (all monotone except
// the gauges).
type Stats struct {
	CompiledHits      int64 // artifact lookups served from the cache
	CompiledMisses    int64 // artifact lookups that had to compile
	CompiledBytes     int64 // gauge: bytes accounted to cached artifacts
	CompiledEntries   int64 // gauge: artifacts cached
	CompiledEvictions int64 // artifacts evicted by the byte budget
	FastQueries       int64 // queries answered by the fragment fast path
	WarmQueries       int64 // queries answered on a warm session engine
	MemoHits          int64 // warm queries answered from the verdict memo
	Checkouts         int64 // successful session checkouts
	CheckoutTimeouts  int64 // batch-window expiries (fell back fresh)
	Retired           int64 // engines retired (staleness or interrupt)
	ActiveCheckouts   int64 // gauge: sessions currently checked out
	Sessions          int64 // gauge: warm sessions resident

	// Store-tier counters. Without a store every compile is cold and
	// the others stay zero.
	ColdCompiles       int64 // compiles the store did not answer
	StoreArtifactHits  int64 // compile misses whose text the store held
	PrewarmedArtifacts int64 // artifacts loaded wholesale by Prewarm
	StoreVerdictSeeds  int64 // memo entries seeded from persisted verdicts
}

// Result is the session layer's answer to a query it handled.
type Result struct {
	// Holds is the verdict (meaningful when Err is nil).
	Holds bool
	// Err is the typed interruption (budget trip) when the warm query
	// did not complete; never a semantic error — unsupported databases
	// are simply not handled by the layer.
	Err error
	// Counters is the oracle work of this query alone (zero on the
	// fast path and on memo hits).
	Counters oracle.Counters
	// Path reports which route answered: "fast" or "session".
	Path string
}

// Request is one query against the session layer.
type Request struct {
	Sem  string
	Kind Kind
	Lit  logic.Lit
	F    *logic.Formula
	// QueryText keys the verdict memo (the literal/formula in request
	// syntax; "" for model queries).
	QueryText string
	// Budget bounds the warm solve; nil means unlimited.
	Budget *budget.B
}

// Manager owns the compiled-artifact cache and the warm sessions.
type Manager struct {
	cfg Config

	artMu    sync.Mutex
	arts     map[string]*list.Element // db text → artifact node
	artList  *list.List               // front = most recently used
	artBytes int64

	sessMu   sync.Mutex
	sessions map[sessKey]*list.Element // (raw, sem) → session node
	sessList *list.List
	// pendingSeeds stages verdicts imported by a cluster handoff for
	// pairs with no live session yet; session() consumes an entry when
	// it creates the pair's warm session. Guarded by sessMu.
	pendingSeeds map[sessKey]map[string]bool

	compiledHits       atomic.Int64
	compiledMisses     atomic.Int64
	compiledEvictions  atomic.Int64
	coldCompiles       atomic.Int64
	storeArtifactHits  atomic.Int64
	prewarmedArtifacts atomic.Int64
	storeVerdictSeeds  atomic.Int64
	fastQueries        atomic.Int64
	warmQueries        atomic.Int64
	memoHits           atomic.Int64
	checkouts          atomic.Int64
	checkoutTimeouts   atomic.Int64
	retired            atomic.Int64
	activeCheckouts    atomic.Int64
}

type artNode struct {
	text string
	comp *Compiled
}

type sessKey struct {
	raw string
	sem string
}

// warmSession serializes access to one incremental engine through a
// capacity-1 channel (the checkout token). The engine may be nil —
// retired — in which case the next checkout rebuilds it.
type warmSession struct {
	key  sessKey
	comp *Compiled
	slot chan *engineState
}

// engineState is the token that travels through the slot channel.
type engineState struct {
	eng     *models.IncrementalEngine
	ora     *oracle.NP
	memo    map[string]bool // completed verdicts only
	queries int             // warm queries served by the current engine
}

// NewManager returns a manager with the given tuning.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:      cfg.withDefaults(),
		arts:     make(map[string]*list.Element),
		artList:  list.New(),
		sessions: make(map[sessKey]*list.Element),
		sessList: list.New(),
	}
}

// Lookup returns the compiled artifact for a database text, if cached.
func (m *Manager) Lookup(text string) (*Compiled, bool) {
	m.artMu.Lock()
	el, ok := m.arts[text]
	if !ok {
		m.artMu.Unlock()
		m.compiledMisses.Add(1)
		return nil, false
	}
	m.artList.MoveToFront(el)
	comp := el.Value.(*artNode).comp
	m.artMu.Unlock()
	m.compiledHits.Add(1)
	return comp, true
}

// Intern compiles (or returns the cached artifact for) a database that
// the caller already parsed from text. Compilation happens outside the
// cache lock; concurrent interns of the same text keep the first
// inserted artifact.
func (m *Manager) Intern(text string, d *db.DB) *Compiled {
	m.artMu.Lock()
	if el, ok := m.arts[text]; ok {
		m.artList.MoveToFront(el)
		comp := el.Value.(*artNode).comp
		m.artMu.Unlock()
		return comp
	}
	m.artMu.Unlock()
	comp := m.compileFor(text, d)
	return m.insert(text, comp)
}

// insert adds a compiled artifact to the LRU (keeping the winner when
// racing interns collide) and enforces the byte budget.
func (m *Manager) insert(text string, comp *Compiled) *Compiled {
	m.artMu.Lock()
	if el, ok := m.arts[text]; ok { // lost the race: keep the winner
		m.artList.MoveToFront(el)
		comp = el.Value.(*artNode).comp
		m.artMu.Unlock()
		return comp
	}
	el := m.artList.PushFront(&artNode{text: text, comp: comp})
	m.arts[text] = el
	m.artBytes += comp.Bytes
	for m.artBytes > m.cfg.MaxBytes && m.artList.Len() > 1 {
		victim := m.artList.Back()
		vn := victim.Value.(*artNode)
		m.artList.Remove(victim)
		delete(m.arts, vn.text)
		m.artBytes -= vn.comp.Bytes
		m.compiledEvictions.Add(1)
	}
	m.artMu.Unlock()
	return comp
}

// compileFor compiles a database text on a cache miss and checks it
// against the store: a persisted artifact for the exact text whose
// fragment agrees is a store hit. Any other compile is cold and is
// written behind so the next process's Prewarm loads it.
func (m *Manager) compileFor(text string, d *db.DB) *Compiled {
	comp := Compile(text, d)
	if st := m.cfg.Store; st != nil {
		// A fragment that disagrees with the persisted record means the
		// record predates a compiler change: the compile counts as cold
		// and repairs the store.
		if a, ok := st.Artifact(text); ok && uint8(comp.Frag) == a.Frag {
			m.storeArtifactHits.Add(1)
			return comp
		}
		st.PutArtifact(store.Artifact{Text: text, Frag: uint8(comp.Frag)})
	}
	m.coldCompiles.Add(1)
	return comp
}

// InternDB is Intern keyed by the database's canonical surface syntax
// (d.String()) — the entry point for callers that hold a *db.DB rather
// than request text (soak, tests, bench).
func (m *Manager) InternDB(d *db.DB) *Compiled {
	return m.Intern(d.String(), d)
}

// Query answers a request from the session layer when it can: the
// fragment fast path first (zero NP calls), then a warm session for
// the minimal-model family. The boolean reports whether the layer
// handled the query — false means the caller must run the fresh path
// (the layer never returns semantic errors; only typed budget
// interruptions from warm solves).
func (m *Manager) Query(ctx context.Context, comp *Compiled, req Request) (Result, bool) {
	if holds, ok := fastVerdict(comp, req.Sem, req.Kind, req.Lit, req.F); ok {
		m.fastQueries.Add(1)
		return Result{Holds: holds, Path: "fast"}, true
	}
	if !warmEligible(req.Sem, req.Kind) {
		return Result{}, false
	}
	sess := m.session(comp, req.Sem)
	st, ok := m.checkout(ctx, sess)
	if !ok {
		m.checkoutTimeouts.Add(1)
		return Result{}, false
	}
	defer m.checkin(sess, st)
	return m.warmOne(st, comp, req), true
}

// warmEligible reports whether the warm-session family serves this
// (semantics, kind) pair at all.
func warmEligible(sem string, kind Kind) bool {
	if !warmSems[sem] {
		return false
	}
	return kind != KindFormula || warmFormulaSems[sem]
}

// WarmEligible exposes warmEligible to the query planner, which needs
// to know whether a warm session is a candidate procedure before it
// touches the Manager.
func WarmEligible(sem string, kind Kind) bool {
	return warmEligible(sem, kind)
}

// warmOne answers one warm-eligible query on an already checked-out
// engine token: memo lookup, lazy engine (re)build, per-query budget
// attach, counter delta, and retirement on interrupt or staleness.
func (m *Manager) warmOne(st *engineState, comp *Compiled, req Request) Result {
	memoKey := req.Kind.String() + "|" + req.QueryText
	if v, ok := st.memo[memoKey]; ok {
		m.memoHits.Add(1)
		m.warmQueries.Add(1)
		return Result{Holds: v, Path: "session"}
	}
	if st.eng == nil {
		st.ora = oracle.NewNP()
		st.eng = models.NewIncrementalEngine(comp.D, st.ora)
		st.queries = 0
	}
	st.ora.WithBudget(req.Budget)
	st.eng.SetBudget(req.Budget)
	before := st.ora.Counters()
	holds, err := m.runWarm(st, comp, req)
	st.ora.WithBudget(nil)
	st.eng.SetBudget(nil)
	after := st.ora.Counters()
	delta := oracle.Counters{
		NPCalls:     after.NPCalls - before.NPCalls,
		Sigma2Calls: after.Sigma2Calls - before.Sigma2Calls,
		SATConfl:    after.SATConfl - before.SATConfl,
	}
	m.warmQueries.Add(1)
	if err != nil {
		// Interrupted mid-query: the engine's solver may hold a
		// partially budget-tripped state — retire it (the memo, holding
		// only completed verdicts, survives).
		st.eng, st.ora = nil, nil
		m.retired.Add(1)
		return Result{Err: err, Counters: delta, Path: "session"}
	}
	st.memo[memoKey] = holds
	if ps := m.cfg.Store; ps != nil {
		ps.PutVerdict(store.Verdict{Raw: comp.Raw, Sem: req.Sem, MemoKey: memoKey, Holds: holds})
	}
	st.queries++
	if st.queries >= m.cfg.MaxQueriesPerSession || st.eng.Vars() > m.cfg.MaxVars {
		st.eng, st.ora = nil, nil
		m.retired.Add(1)
	}
	return Result{Holds: holds, Counters: delta, Path: "session"}
}

// BatchOutcome pairs one batch request's Result with whether the
// session layer handled it; unhandled entries must be run by the
// caller's fresh path.
type BatchOutcome struct {
	Res     Result
	Handled bool
}

// Batch answers many requests against one compiled database, paying
// the checkout cost once per (database, semantics) group instead of
// once per query — the public form of the micro-batch window. Fast-path
// queries are answered inline with zero NP calls; warm-eligible
// queries are grouped by semantics and executed back-to-back on a
// single checked-out engine, in request order within each group, so
// the NP-call total equals the same queries issued sequentially
// through Query. A checkout that cannot be claimed within the batch
// window leaves its whole group unhandled; a query interrupted by its
// budget retires the engine and the next query in the group rebuilds
// it, exactly as on the sequential path.
func (m *Manager) Batch(ctx context.Context, comp *Compiled, reqs []Request) []BatchOutcome {
	out := make([]BatchOutcome, len(reqs))
	var order []string
	groups := make(map[string][]int)
	for i, req := range reqs {
		if holds, ok := fastVerdict(comp, req.Sem, req.Kind, req.Lit, req.F); ok {
			m.fastQueries.Add(1)
			out[i] = BatchOutcome{Res: Result{Holds: holds, Path: "fast"}, Handled: true}
			continue
		}
		if !warmEligible(req.Sem, req.Kind) {
			continue
		}
		if _, seen := groups[req.Sem]; !seen {
			order = append(order, req.Sem)
		}
		groups[req.Sem] = append(groups[req.Sem], i)
	}
	for _, sem := range order {
		idxs := groups[sem]
		sess := m.session(comp, sem)
		st, ok := m.checkout(ctx, sess)
		if !ok {
			m.checkoutTimeouts.Add(1)
			continue // the whole group falls back to the caller's fresh path
		}
		for _, i := range idxs {
			out[i] = BatchOutcome{Res: m.warmOne(st, comp, reqs[i]), Handled: true}
		}
		m.checkin(sess, st)
	}
	return out
}

// FastVerdict exposes the fragment fast path for callers that hold a
// compiled artifact but no Manager (e.g. the serve batch planner with
// sessions disabled). The second return reports whether the
// (fragment, semantics) pair is allowlisted.
func FastVerdict(comp *Compiled, sem string, kind Kind, lit logic.Lit, f *logic.Formula) (bool, bool) {
	return fastVerdict(comp, sem, kind, lit, f)
}

// runWarm executes one warm query; budget trips surface as the typed
// error of the named return.
func (m *Manager) runWarm(st *engineState, comp *Compiled, req Request) (holds bool, err error) {
	defer budget.Recover(&err)
	part := models.FullMin(comp.N)
	switch req.Kind {
	case KindModel:
		if !comp.HasIC && !comp.HasNeg {
			// A positive database without denials always has a model —
			// the same zero-call shortcut the fresh engines take.
			return true, nil
		}
		ok, _ := st.eng.HasModel()
		return ok, nil
	case KindFormula:
		return st.eng.MMEntails(req.F, part), nil
	default:
		return st.eng.MMEntails(logic.LitF(req.Lit), part), nil
	}
}

// session returns (creating if needed) the warm session for the pair,
// evicting the least-recently-used session beyond the bound.
func (m *Manager) session(comp *Compiled, sem string) *warmSession {
	key := sessKey{raw: comp.Raw, sem: sem}
	m.sessMu.Lock()
	if el, ok := m.sessions[key]; ok {
		m.sessList.MoveToFront(el)
		s := el.Value.(*warmSession)
		m.sessMu.Unlock()
		return s
	}
	s := &warmSession{key: key, comp: comp, slot: make(chan *engineState, 1)}
	memo := make(map[string]bool)
	if pend, ok := m.pendingSeeds[key]; ok {
		// Verdicts handed off by a draining peer before this pair's
		// first query: fold them in and clear the staging entry.
		for k, v := range pend {
			memo[k] = v
		}
		delete(m.pendingSeeds, key)
		m.storeVerdictSeeds.Add(int64(len(memo)))
	}
	if st := m.cfg.Store; st != nil {
		// Seed the verdict memo from persisted completed verdicts: equal
		// Raw means the indexed CNF is byte-identical, so verdicts from a
		// previous process transfer verbatim and replays cost zero NP.
		pre := len(memo)
		for k, v := range st.Verdicts(comp.Raw, sem) {
			memo[k] = v
		}
		m.storeVerdictSeeds.Add(int64(len(memo) - pre))
	}
	s.slot <- &engineState{memo: memo}
	el := m.sessList.PushFront(s)
	m.sessions[key] = el
	for m.sessList.Len() > m.cfg.MaxSessions {
		victim := m.sessList.Back()
		vs := victim.Value.(*warmSession)
		m.sessList.Remove(victim)
		delete(m.sessions, vs.key)
		// An outstanding checkout of the evicted session finishes
		// normally and checks back into the orphaned slot, which is
		// then garbage-collected.
	}
	m.sessMu.Unlock()
	return s
}

// checkout claims the session's engine, waiting at most the batch
// window (or until ctx is done).
func (m *Manager) checkout(ctx context.Context, s *warmSession) (*engineState, bool) {
	select {
	case st := <-s.slot:
		m.checkouts.Add(1)
		m.activeCheckouts.Add(1)
		return st, true
	default:
	}
	t := time.NewTimer(m.cfg.BatchWindow)
	defer t.Stop()
	select {
	case st := <-s.slot:
		m.checkouts.Add(1)
		m.activeCheckouts.Add(1)
		return st, true
	case <-t.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// checkin returns the engine token.
func (m *Manager) checkin(s *warmSession, st *engineState) {
	m.activeCheckouts.Add(-1)
	s.slot <- st
}

// Stats returns a snapshot of the counters and gauges.
func (m *Manager) Stats() Stats {
	m.artMu.Lock()
	bytes, entries := m.artBytes, int64(m.artList.Len())
	m.artMu.Unlock()
	m.sessMu.Lock()
	sessions := int64(m.sessList.Len())
	m.sessMu.Unlock()
	return Stats{
		CompiledHits:      m.compiledHits.Load(),
		CompiledMisses:    m.compiledMisses.Load(),
		CompiledBytes:     bytes,
		CompiledEntries:   entries,
		CompiledEvictions: m.compiledEvictions.Load(),
		FastQueries:       m.fastQueries.Load(),
		WarmQueries:       m.warmQueries.Load(),
		MemoHits:          m.memoHits.Load(),
		Checkouts:         m.checkouts.Load(),
		CheckoutTimeouts:  m.checkoutTimeouts.Load(),
		Retired:           m.retired.Load(),
		ActiveCheckouts:   m.activeCheckouts.Load(),
		Sessions:          sessions,

		ColdCompiles:       m.coldCompiles.Load(),
		StoreArtifactHits:  m.storeArtifactHits.Load(),
		PrewarmedArtifacts: m.prewarmedArtifacts.Load(),
		StoreVerdictSeeds:  m.storeVerdictSeeds.Load(),
	}
}
