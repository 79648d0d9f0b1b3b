// Package par is the small worker-pool substrate of the parallel
// oracle layer. The semantics algorithms decompose into batches of
// independent NP-oracle queries (per-atom closure tests, per-region
// minimal-model searches, per-candidate stability/perfection checks);
// this package runs such a batch across runtime.NumCPU() goroutines.
//
// The helpers deliberately know nothing about solvers or oracles: the
// determinism guarantees of the callers (identical oracle-call counts
// regardless of worker count) come from the *decomposition* being
// static — each work item performs the same queries no matter which
// worker runs it or when. par only supplies the scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values ≤ 0 mean
// runtime.NumCPU(), everything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.NumCPU()
	}
	return requested
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and returns when all calls have completed. Work items are
// handed out dynamically (an atomic cursor), so uneven item costs are
// balanced. With workers == 1 (or n == 1) everything runs on the
// calling goroutine — the serial reference schedule.
//
// A panic inside fn (notably a budget.Interrupt raised by a tripped
// query budget) does not crash the process or leak goroutines: the
// first panic payload is captured, the remaining work items are
// drained without running fn, every worker exits, and the panic is
// re-raised on the calling goroutine — where the caller's deferred
// budget.Recover can translate it into a typed error.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var payload atomic.Pointer[any]
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							p := r
							payload.CompareAndSwap(nil, &p)
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := payload.Load(); p != nil {
		panic(*p)
	}
}
