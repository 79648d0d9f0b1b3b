package models

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/dbtest"
	"disjunct/internal/faults"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
)

// settleGoroutines waits for the goroutine count to fall back to at
// most base, tolerating the runtime's background workers.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > %d", runtime.NumGoroutine(), base)
}

func sortedKeys(ms []logic.Interp) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBudgetedCompleteIsByteIdentical: under a generous budget every
// budgeted enumerator completes and yields exactly the unbudgeted
// enumerator's model set (MM(DB) by brute force); the serial one in
// the identical order with the identical NP charge.
func TestBudgetedCompleteIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		d := gen.Random(rng, gen.Config{Atoms: 3 + rng.Intn(5), Clauses: 2 + rng.Intn(8), MaxHead: 3, MaxBody: 2, FactProb: 0.4})

		ref := oracle.NewNP()
		want := collect(NewEngine(d, ref).IterateMinimalModels(0))
		if !refsem.SameModelSet(refsem.MinimalModels(d), want) {
			t.Fatalf("iter %d: unbudgeted enumeration is not MM(DB)", iter)
		}

		o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{NPCalls: 1 << 30, Deadline: time.Hour}))
		eng := NewEngine(d, o)
		var got []logic.Interp
		count, err := Drain(eng.IterateMinimalModels(0), func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		})
		if err != nil {
			t.Fatalf("iter %d: generous budget tripped: %v", iter, err)
		}
		if count != len(want) || len(got) != len(want) {
			t.Fatalf("iter %d: count %d, want %d", iter, count, len(want))
		}
		for i := range want {
			if want[i].Key() != got[i].Key() {
				t.Fatalf("iter %d: order/content diverges at %d", iter, i)
			}
		}
		if a, b := o.Counters().NPCalls, ref.Counters().NPCalls; a != b {
			t.Fatalf("iter %d: budgeted NP=%d, unbudgeted NP=%d", iter, a, b)
		}

		// Parallel budgeted: same set (order is nondeterministic).
		o2 := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{NPCalls: 1 << 30}))
		eng2 := NewEngine(d, o2)
		var gotPar []logic.Interp
		_, err = Drain(eng2.IterateMinimalModelsPar(0, ParOptions{Workers: 4}), func(m logic.Interp) bool {
			gotPar = append(gotPar, m.Clone())
			return true
		})
		if err != nil {
			t.Fatalf("iter %d: parallel generous budget tripped: %v", iter, err)
		}
		if !equalKeys(sortedKeys(want), sortedKeys(gotPar)) {
			t.Fatalf("iter %d: parallel model set diverges", iter)
		}
	}
}

// TestNPCallBudgetYieldsPartialResult: a tight NP-call budget
// interrupts the enumeration with the typed cause; models yielded
// before the trip are genuine (a prefix of the reference set) and the
// counter is exact.
func TestNPCallBudgetYieldsPartialResult(t *testing.T) {
	d := dbtest.MustParse("a | b. c | d. e | f. g | h.")
	refSet := map[string]bool{}
	for _, m := range refsem.MinimalModels(d) {
		refSet[m.Key()] = true
	}

	const limit = 4
	o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{NPCalls: limit}))
	eng := NewEngine(d, o)
	var got []logic.Interp
	count, err := Drain(eng.IterateMinimalModels(0), func(m logic.Interp) bool {
		got = append(got, m.Clone())
		return true
	})
	if !errors.Is(err, budget.ErrNPCallBudget) {
		t.Fatalf("err = %v, want ErrNPCallBudget", err)
	}
	if count != len(got) {
		t.Fatalf("count %d != yields %d", count, len(got))
	}
	if count >= len(refSet) {
		t.Fatalf("enumeration was not actually cut short (%d of %d)", count, len(refSet))
	}
	for _, m := range got {
		if !refSet[m.Key()] {
			t.Fatalf("partial result %s is not a reference minimal model", m.Key())
		}
	}
	if calls := o.Counters().NPCalls; calls != limit {
		t.Fatalf("NPCalls = %d, want exactly %d", calls, limit)
	}
}

// cancelMidEnumeration cancels the context from inside the first yield
// and asserts the enumerator returns promptly with ErrCanceled, the
// pool drains, and counters stay consistent. Run under -race.
func cancelMidEnumeration(t *testing.T, run func(eng *Engine, yield func(logic.Interp) bool) (int, error)) {
	t.Helper()
	d := dbtest.MustParse("a | b. c | d. e | f. g | h. i | j.")
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := oracle.NewNP().WithBudget(budget.New(ctx, budget.Limits{}))
	eng := NewEngine(d, o)

	yields := 0
	start := time.Now()
	count, err := run(eng, func(logic.Interp) bool {
		yields++
		if yields == 1 {
			cancel()
		}
		return true
	})
	elapsed := time.Since(start)

	if err != nil && !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (or a pre-cancel completion)", err)
	}
	if err == nil && yields == 0 {
		t.Fatal("no yields and no error: enumeration vanished")
	}
	if count != yields {
		t.Fatalf("count %d != yields %d after cancellation", count, yields)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	settleGoroutines(t, base)

	c := o.Counters()
	if c.NPCalls < 0 {
		t.Fatalf("inconsistent counters after cancel: %+v", c)
	}
}

func TestCancelMidMinimalModelsPar(t *testing.T) {
	cancelMidEnumeration(t, func(eng *Engine, yield func(logic.Interp) bool) (int, error) {
		return Drain(eng.IterateMinimalModelsPar(0, ParOptions{Workers: 4}), yield)
	})
}

func TestCancelMidEnumerateModelsPar(t *testing.T) {
	cancelMidEnumeration(t, func(eng *Engine, yield func(logic.Interp) bool) (int, error) {
		return Drain(eng.IterateModelsPar(0, ParOptions{Workers: 4}), yield)
	})
}

func TestCancelMidSerialEnumeration(t *testing.T) {
	cancelMidEnumeration(t, func(eng *Engine, yield func(logic.Interp) bool) (int, error) {
		return Drain(eng.IterateMinimalModels(0), yield)
	})
}

// TestPreCanceledContextFailsFast: enumeration on an already-canceled
// context yields nothing and returns ErrCanceled immediately.
func TestPreCanceledContextFailsFast(t *testing.T) {
	d := dbtest.MustParse("a | b. c | d.")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := oracle.NewNP().WithBudget(budget.New(ctx, budget.Limits{}))
	eng := NewEngine(d, o)
	count, err := Drain(eng.IterateMinimalModelsPar(0, ParOptions{Workers: 4}), func(logic.Interp) bool { return true })
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if count != 0 {
		t.Fatalf("count = %d on pre-canceled context", count)
	}
}

// TestFaultInjectionWorkerPool: with faults injected into the oracle
// under the worker pool, every run either completes with the reference
// model set or surfaces a typed interruption — and never leaks
// goroutines. Run under -race.
func TestFaultInjectionWorkerPool(t *testing.T) {
	d := dbtest.MustParse("a | b. b | c. c | a. d | e.")
	wantKeys := sortedKeys(refsem.MinimalModels(d))

	base := runtime.NumGoroutine()
	completed, interrupted := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		o := oracle.NewNP().WithFaults(faults.NewInjector(0.2, seed))
		eng := NewEngine(d, o)
		var got []logic.Interp
		_, err := Drain(eng.IterateMinimalModelsPar(0, ParOptions{Workers: 4}), func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		})
		if err != nil {
			if !budget.Interrupted(err) {
				t.Fatalf("seed %d: untyped error %v", seed, err)
			}
			interrupted++
			continue
		}
		if !equalKeys(wantKeys, sortedKeys(got)) {
			t.Fatalf("seed %d: silent corruption — completed run diverges from reference", seed)
		}
		completed++
	}
	if completed == 0 {
		t.Fatal("no seed completed at rate 0.2")
	}
	if interrupted == 0 {
		t.Log("note: no seed was interrupted at rate 0.2 (distribution drift)")
	}
	settleGoroutines(t, base)
}
