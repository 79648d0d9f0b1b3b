package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(1, 1) // 1 executing + 1 queued
	drainCtx := context.Background()

	first := a.admit(drainCtx, context.Background())
	if first.shed != "" {
		t.Fatalf("first admit shed: %s", first.shed)
	}

	// Second request occupies the single queue slot, blocked on the exec
	// slot the first one holds.
	var wg sync.WaitGroup
	wg.Add(1)
	var second admitResult
	go func() {
		defer wg.Done()
		second = a.admit(drainCtx, context.Background())
		if second.shed == "" {
			a.release()
		}
	}()
	waitFor(t, func() bool { q, _, _ := a.depth(); return q == 2 })

	// Queue is now full: further admits shed instantly with the typed
	// queue_full reason.
	for i := 0; i < 3; i++ {
		if res := a.admit(drainCtx, context.Background()); res.shed != ShedQueueFull {
			t.Fatalf("overflow admit %d: shed=%q, want %q", i, res.shed, ShedQueueFull)
		}
	}

	a.release()
	wg.Wait()
	if second.shed != "" {
		t.Fatalf("queued request shed after slot freed: %s", second.shed)
	}
	if q, w, e := a.depth(); q != 0 || w != 0 || e != 0 {
		t.Fatalf("depth after release = (%d,%d,%d), want zeros", q, w, e)
	}
}

func TestAdmissionShedsWhileDraining(t *testing.T) {
	a := newAdmission(1, 4)
	drainCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if res := a.admit(drainCtx, context.Background()); res.shed != ShedDraining {
		t.Fatalf("shed=%q, want %q", res.shed, ShedDraining)
	}
}

func TestAdmissionDrainReleasesWaiters(t *testing.T) {
	a := newAdmission(1, 4)
	drainCtx, cancel := context.WithCancel(context.Background())
	first := a.admit(drainCtx, context.Background())
	if first.shed != "" {
		t.Fatalf("first admit shed: %s", first.shed)
	}
	done := make(chan admitResult, 1)
	go func() { done <- a.admit(drainCtx, context.Background()) }()
	waitFor(t, func() bool { _, w, _ := a.depth(); return w == 1 })
	cancel()
	select {
	case res := <-done:
		if res.shed != ShedDraining {
			t.Fatalf("waiter shed=%q, want %q", res.shed, ShedDraining)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by drain")
	}
	a.release()
}

func TestAdmissionQueueWaitDeadline(t *testing.T) {
	a := newAdmission(1, 4)
	first := a.admit(context.Background(), context.Background())
	if first.shed != "" {
		t.Fatalf("first admit shed: %s", first.shed)
	}
	reqCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := a.admit(context.Background(), reqCtx)
	if res.shed != ShedQueueWait {
		t.Fatalf("shed=%q, want %q", res.shed, ShedQueueWait)
	}
	a.release()
	if q, _, _ := a.depth(); q != 0 {
		t.Fatalf("queued=%d after timeout + release, want 0", q)
	}
}

// TestAdmissionClientGone: a plain cancellation of the request context
// (client disconnect) while queued is classified ShedClientGone, not
// ShedQueueWait — disconnects must not be counted as deadline sheds.
func TestAdmissionClientGone(t *testing.T) {
	a := newAdmission(1, 4)
	first := a.admit(context.Background(), context.Background())
	if first.shed != "" {
		t.Fatalf("first admit shed: %s", first.shed)
	}
	reqCtx, cancel := context.WithCancel(context.Background())
	done := make(chan admitResult, 1)
	go func() { done <- a.admit(context.Background(), reqCtx) }()
	waitFor(t, func() bool { _, w, _ := a.depth(); return w == 1 })
	cancel()
	select {
	case res := <-done:
		if res.shed != ShedClientGone {
			t.Fatalf("shed=%q, want %q", res.shed, ShedClientGone)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by client cancel")
	}
	a.release()
	if q, _, _ := a.depth(); q != 0 {
		t.Fatalf("queued=%d after cancel + release, want 0", q)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
