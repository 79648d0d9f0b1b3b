package plan

import (
	"sync"
	"sync/atomic"
)

// Cost is one completed query's measured cost: the NP-oracle calls the
// execution paths already count.
type Cost struct {
	NPCalls int64
}

// entry accumulates commutative sums per (fingerprint, semantics) key.
// Sums instead of an EWMA so that concurrent observations are
// order-independent: any interleaving of the same multiset of
// observations yields the same final estimate (the determinism the
// -race suite asserts), and the mean derives on read.
type entry struct {
	count int64
	sumNP int64
}

func (e entry) meanNP() int64 {
	if e.count == 0 {
		return 0
	}
	return e.sumNP / e.count
}

// estimatorGen bounds each of the estimator's two generations, so the
// estimator holds at most 2·estimatorGen keys however many distinct
// databases it observes.
const estimatorGen = 8192

// Estimator is the per-(fingerprint, semantics) cost model. It lives
// only in this process: a restart or a handoff starts it empty, and the
// first observation of a key calibrates it again. A single mutex over
// the maps is enough: observations are two integer adds, far cheaper
// than the NP search they describe.
//
// Keys live in two generations. New keys enter cur; when cur is full
// it becomes old and the previous old generation is dropped. A key hit
// in old moves back to cur, so a key touched at least once per
// generation is never dropped. A key is in at most one generation.
type Estimator struct {
	mu  sync.Mutex
	cur map[estKey]*entry
	old map[estKey]*entry

	observations atomic.Int64
}

// estKey is a composite struct key: the raw fingerprint is binary
// (varint bytes, NULs included), so no in-string separator is safe.
type estKey struct {
	raw, sem string
}

func newEstimator() *Estimator {
	return &Estimator{cur: make(map[estKey]*entry), old: make(map[estKey]*entry)}
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

// observe folds one measured cost into the key's sums.
func (e *Estimator) observe(raw, sem string, c Cost) {
	e.observations.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	k := estKey{raw, sem}
	en := e.lookup(k)
	if en == nil {
		en = &entry{}
		e.insert(k, en)
	}
	en.count++
	en.sumNP += c.NPCalls
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

func (e *Estimator) len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cur) + len(e.old)
}
