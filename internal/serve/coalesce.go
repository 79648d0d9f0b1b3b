package serve

import "sync"

// Cross-request coalescing: identical (db, semantics, kind, query)
// requests that overlap in time share one execution. The first arrival
// becomes the leader and solves; followers wait on the leader's flight
// and reuse its response when — and only when — it is a complete 200
// verdict. Incomplete verdicts (budget trips, drain cancels) and
// semantic errors are never shared: they can depend on the leader's
// timing (its client's deadline, its arrival order against a drain),
// so each follower re-executes those itself. The effective limits are
// not part of the key for the same reason the verdict memo ignores
// them: a complete verdict holds under any budget.
//
// Followers already hold their own admission slots while they wait, so
// a waiting follower can never starve the leader of the pool —
// coalescing only ever reduces solver work, never admission capacity.

// flightKey identifies interchangeable requests. It names the exact
// database text, as the verdict memo does: two texts with one
// fingerprint can disagree on a verdict.
type flightKey struct {
	db, sem, kind, query string
}

// flight is one in-progress leader execution. resp/ok are written by
// the leader strictly before close(done); followers read them only
// after <-done.
type flight struct {
	done chan struct{}
	resp QueryResponse
	ok   bool // resp is a complete 200 verdict, safe to share
}

// flightGroup indexes in-progress flights by key. The map is nil
// unless sessions are enabled.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flight
}

// join returns the flight for key and whether the caller is its
// leader. A leader MUST call finish exactly once on every path out of
// its execution, or followers block until their own contexts expire.
func (g *flightGroup) join(key flightKey) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and releases the followers.
// The map entry is removed before done is closed, so a request
// arriving after the close starts a fresh flight rather than reading a
// completed one.
func (g *flightGroup) finish(key flightKey, f *flight, resp QueryResponse, ok bool) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.resp, f.ok = resp, ok
	close(f.done)
}
