package plan

import (
	"sync"
	"sync/atomic"

	"disjunct/internal/store"
)

// Cost is one completed query's measured cost — the exact counters the
// execution paths already produce.
type Cost struct {
	NPCalls  int64
	SATConfl int64
	Micros   int64
}

// entry accumulates commutative sums per (fingerprint, semantics) key.
// Sums instead of an EWMA so that concurrent observations are
// order-independent: any interleaving of the same multiset of
// observations yields the same final estimate (the determinism the
// -race suite asserts), and the means derive on read.
type entry struct {
	count     int64
	sumNP     int64
	sumConfl  int64
	sumMicros int64
}

func (e entry) meanNP() int64 {
	if e.count == 0 {
		return 0
	}
	return e.sumNP / e.count
}

func (e entry) meanUS() int64 {
	if e.count == 0 {
		return 0
	}
	return e.sumMicros / e.count
}

// estimatorGen bounds each of the estimator's two generations, so the
// estimator holds at most 2·estimatorGen keys however many distinct
// databases it observes.
const estimatorGen = 8192

// Estimator is the per-(fingerprint, semantics) cost model. A single
// mutex over the maps is enough: observations are a handful of integer
// adds, far cheaper than the NP search they describe.
//
// Keys live in two generations. New keys enter cur; when cur is full
// it becomes old and the previous old generation is dropped. A key hit
// in old moves back to cur, so a key touched at least once per
// generation is never dropped. A key is in at most one generation.
type Estimator struct {
	mu  sync.Mutex
	cur map[estKey]*entry
	old map[estKey]*entry
	st  *store.Store // write-behind target, may be nil

	observations atomic.Int64
}

// estKey is a composite struct key: the raw fingerprint is binary
// (varint bytes, NULs included), so no in-string separator is safe.
type estKey struct {
	raw, sem string
}

func newEstimator(st *store.Store) *Estimator {
	return &Estimator{cur: make(map[estKey]*entry), old: make(map[estKey]*entry), st: st}
}

// lookup returns k's entry, promoting it from old to cur; nil when
// neither generation holds k. Callers hold e.mu.
func (e *Estimator) lookup(k estKey) *entry {
	if en := e.cur[k]; en != nil {
		return en
	}
	en := e.old[k]
	if en != nil {
		delete(e.old, k)
		e.insert(k, en)
	}
	return en
}

// insert puts k into cur, rotating the generations first when cur is
// full. Callers hold e.mu and have checked that no generation holds k.
func (e *Estimator) insert(k estKey, en *entry) {
	if len(e.cur) >= estimatorGen {
		e.old, e.cur = e.cur, make(map[estKey]*entry)
	}
	e.cur[k] = en
}

// observe folds one measured cost into the key's sums and writes the
// snapshot behind to the store (the store's flusher batches the I/O).
func (e *Estimator) observe(raw, sem string, c Cost) {
	e.observations.Add(1)
	e.mu.Lock()
	k := estKey{raw, sem}
	en := e.lookup(k)
	if en == nil {
		en = &entry{}
		e.insert(k, en)
	}
	en.count++
	en.sumNP += c.NPCalls
	en.sumConfl += c.SATConfl
	en.sumMicros += c.Micros
	snap := *en
	e.mu.Unlock()
	if e.st != nil {
		e.st.PutEstimate(store.Estimate{
			Raw: raw, Sem: sem,
			Count: snap.count, SumNP: snap.sumNP,
			SumConfl: snap.sumConfl, SumMicros: snap.sumMicros,
		})
	}
}

// estimate returns the key's accumulated entry; ok is false when no
// observation has ever landed (a cold query) or the key was dropped.
func (e *Estimator) estimate(raw, sem string) (entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.lookup(estKey{raw, sem})
	if en == nil || en.count == 0 {
		return entry{}, false
	}
	return *en, true
}

// seed loads persisted estimates at construction. Same merge rule as
// handoff import so a store seed followed by an import of the same
// snapshot cannot double-count.
func (e *Estimator) seed(list []store.Estimate) { e.merge(list) }

// merge absorbs shipped estimates: for each key the entry with the
// larger observation count wins. Max-by-count is commutative,
// idempotent, and monotone — the same join-semilattice discipline the
// cluster gossip uses — so re-importing a slice, or importing after a
// store seed of the same snapshot, changes nothing.
func (e *Estimator) merge(list []store.Estimate) int {
	accepted := 0
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range list {
		if s.Count <= 0 {
			continue
		}
		// No promotion here: an import is not a hit, and promoting
		// could rotate away keys later in the same list.
		k := estKey{s.Raw, s.Sem}
		en := e.cur[k]
		if en == nil {
			en = e.old[k]
		}
		if en != nil && en.count >= s.Count {
			continue
		}
		if en == nil {
			en = &entry{}
			e.insert(k, en)
		}
		*en = entry{count: s.Count, sumNP: s.SumNP, sumConfl: s.SumConfl, sumMicros: s.SumMicros}
		accepted++
	}
	return accepted
}

// export snapshots every entry of both generations for handoff/join
// slices.
func (e *Estimator) export() []store.Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]store.Estimate, 0, len(e.cur)+len(e.old))
	for _, gen := range [...]map[estKey]*entry{e.old, e.cur} {
		for k, en := range gen {
			out = append(out, store.Estimate{
				Raw: k.raw, Sem: k.sem,
				Count: en.count, SumNP: en.sumNP,
				SumConfl: en.sumConfl, SumMicros: en.sumMicros,
			})
		}
	}
	return out
}

func (e *Estimator) len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cur) + len(e.old)
}
