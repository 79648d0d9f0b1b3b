package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// admission is the bounded queue + concurrency limiter in front of the
// solve path. A request first claims a queue slot (shed with
// ShedQueueFull when none are left — the typed 429), then waits for
// one of the MaxConcurrent execution slots; while it waits the server
// may begin draining (shed with ShedDraining, the typed 503), the
// request's own deadline may expire (ShedQueueWait — still a 429:
// no solve work was started, so the client should simply back off and
// retry), or the client may disconnect (ShedClientGone — counted
// separately so disconnects don't masquerade as deadline sheds in
// stats).
//
// The two-level structure is what makes shedding cheap: a full queue
// is detected with one atomic add, so overload costs O(1) per shed
// request no matter how expensive the queries holding the slots are.
type admission struct {
	exec    chan struct{} // execution slots; capacity = MaxConcurrent
	queued  atomic.Int64  // requests holding a queue slot (waiting or executing)
	bound   int64         // queue slots (≥ MaxConcurrent)
	waiting atomic.Int64  // requests blocked on an exec slot (for /healthz)
}

func newAdmission(maxConcurrent, queueDepth int) *admission {
	return &admission{
		exec:  make(chan struct{}, maxConcurrent),
		bound: int64(maxConcurrent + queueDepth),
	}
}

// admitResult is the typed outcome of trying to enter the server. An
// admitted request (shed == "") holds both slots until release.
type admitResult struct {
	shed   string        // one of the Shed* reasons, "" when admitted
	waited time.Duration // time spent queued
}

// admit tries to claim a queue slot and then an execution slot.
// drainCtx is cancelled when the server begins draining; reqCtx is the
// request's own context (its deadline bounds the queue wait).
func (a *admission) admit(drainCtx, reqCtx context.Context) admitResult {
	// Shed instantly when the server is already draining.
	select {
	case <-drainCtx.Done():
		return admitResult{shed: ShedDraining}
	default:
	}
	if a.queued.Add(1) > a.bound {
		a.queued.Add(-1)
		return admitResult{shed: ShedQueueFull}
	}
	start := time.Now()
	a.waiting.Add(1)
	defer a.waiting.Add(-1)
	select {
	case a.exec <- struct{}{}:
		return admitResult{waited: time.Since(start)}
	case <-drainCtx.Done():
		a.queued.Add(-1)
		return admitResult{shed: ShedDraining, waited: time.Since(start)}
	case <-reqCtx.Done():
		a.queued.Add(-1)
		// Only a deadline firing is the queue-wait shed (back off and
		// retry); any other cancellation means the client went away.
		shed := ShedQueueWait
		if !errors.Is(context.Cause(reqCtx), context.DeadlineExceeded) {
			shed = ShedClientGone
		}
		return admitResult{shed: shed, waited: time.Since(start)}
	}
}

// release returns an admitted request's execution and queue slots.
func (a *admission) release() {
	<-a.exec
	a.queued.Add(-1)
}

// depth reports (queued, waiting, executing) for health reporting.
func (a *admission) depth() (queued, waiting, executing int64) {
	return a.queued.Load(), a.waiting.Load(), int64(len(a.exec))
}

// queueBound reports the total queue capacity (executing + waiting) —
// the denominator of the planner's cost-shed occupancy check.
func (a *admission) queueBound() int { return int(a.bound) }
