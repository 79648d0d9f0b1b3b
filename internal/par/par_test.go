package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		const n = 1000
		hits := make([]atomic.Int32, n)
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ForEach(4, -1, func(int) { t.Fatal("fn called for n<0") })
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "item-3" {
			t.Fatalf("panic payload = %v, want item-3", r)
		}
	}()
	ForEach(4, 8, func(i int) {
		if i == 3 {
			panic("item-3")
		}
	})
}

func TestForEachPanicDrainsWithoutDeadlock(t *testing.T) {
	// Every item panics; exactly one payload must surface, the pool
	// must drain, and no goroutine may leak.
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic surfaced")
				}
			}()
			ForEach(8, 64, func(i int) { panic(i) })
		}()
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
}

func TestForEachSingleWorkerPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("serial path swallowed the panic")
		}
	}()
	ForEach(1, 4, func(i int) {
		if i == 2 {
			panic("serial")
		}
	})
}
