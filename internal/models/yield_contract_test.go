package models

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/dbtest"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// The yield contract, enforced for all six enumerator variants:
//
//  1. yield is never invoked again after it first returns false;
//  2. yield is never invoked after Drain has returned
//     with a budget-trip error — including from in-flight parallel
//     workers that were mid-search when a sibling tripped.
//
// The emitter's mutex (and its halt hook on the worker unwind path)
// is what makes (2) hold for the pool variants; these tests are the
// regression net for that ordering.

// variant names one enumerator entry point under test.
type variant struct {
	name string
	run  func(e *Engine, limit int, yield func(logic.Interp) bool) (int, error)
}

func allVariants() []variant {
	opt := ParOptions{Workers: 4}
	return []variant{
		{"EnumerateModels", func(e *Engine, limit int, y func(logic.Interp) bool) (int, error) {
			return Drain(e.IterateModels(limit), y)
		}},
		{"MinimalModels", func(e *Engine, limit int, y func(logic.Interp) bool) (int, error) {
			return Drain(e.IterateMinimalModels(limit), y)
		}},
		{"MinimalModelsPZ", func(e *Engine, limit int, y func(logic.Interp) bool) (int, error) {
			return Drain(e.IterateMinimalModelsPZ(FullMin(e.DB.N()), limit), y)
		}},
		{"EnumerateModelsPar", func(e *Engine, limit int, y func(logic.Interp) bool) (int, error) {
			return Drain(e.IterateModelsPar(limit, opt), y)
		}},
		{"MinimalModelsPar", func(e *Engine, limit int, y func(logic.Interp) bool) (int, error) {
			return Drain(e.IterateMinimalModelsPar(limit, opt), y)
		}},
		{"MinimalModelsPZPar", func(e *Engine, limit int, y func(logic.Interp) bool) (int, error) {
			return Drain(e.IterateMinimalModelsPZPar(FullMin(e.DB.N()), limit, opt), y)
		}},
	}
}

// TestYieldNeverInvokedAfterFalse: once yield returns false, no
// variant may call it again — not even a pool worker already holding a
// model.
func TestYieldNeverInvokedAfterFalse(t *testing.T) {
	d := dbtest.MustParse("a | b. c | d. e | f. g | h.")
	for _, v := range allVariants() {
		var calls, after int32
		var refused atomic.Bool
		_, err := v.run(NewEngine(d, nil), 0, func(logic.Interp) bool {
			if refused.Load() {
				atomic.AddInt32(&after, 1)
				return false
			}
			atomic.AddInt32(&calls, 1)
			refused.Store(true)
			return false
		})
		if err != nil {
			t.Fatalf("%s: unexpected error %v", v.name, err)
		}
		// Let any straggler worker surface before judging.
		time.Sleep(20 * time.Millisecond)
		if got := atomic.LoadInt32(&after); got != 0 {
			t.Fatalf("%s: yield invoked %d time(s) after returning false", v.name, got)
		}
		if atomic.LoadInt32(&calls) != 1 {
			t.Fatalf("%s: yield accepted %d calls, want exactly 1", v.name, calls)
		}
	}
}

// TestYieldNeverInvokedAfterBudgetTrip: after Drain has
// returned with a trip, no late worker may deliver another model.
func TestYieldNeverInvokedAfterBudgetTrip(t *testing.T) {
	for _, d := range randomDBs(307, 6) {
		for _, v := range allVariants() {
			o := oracle.NewNP().WithBudget(budget.New(context.Background(),
				budget.Limits{NPCalls: 3, Deadline: time.Hour}))
			var returned atomic.Bool
			var late int32
			_, err := v.run(NewEngine(d, o), 0, func(logic.Interp) bool {
				if returned.Load() {
					atomic.AddInt32(&late, 1)
				}
				return true
			})
			returned.Store(true)
			if err != nil && !budget.Interrupted(err) {
				t.Fatalf("%s: untyped error %v", v.name, err)
			}
			time.Sleep(20 * time.Millisecond)
			if got := atomic.LoadInt32(&late); got != 0 {
				t.Fatalf("%s: yield invoked %d time(s) after the wrapper returned", v.name, got)
			}
		}
	}
}

// TestYieldStopsAtLimit: the limit is exact for every variant.
func TestYieldStopsAtLimit(t *testing.T) {
	d := dbtest.MustParse("a | b. c | d. e | f.")
	for _, v := range allVariants() {
		var calls int32
		count, err := v.run(NewEngine(d, nil), 2, func(logic.Interp) bool {
			atomic.AddInt32(&calls, 1)
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		time.Sleep(10 * time.Millisecond)
		if count != 2 || atomic.LoadInt32(&calls) != 2 {
			t.Fatalf("%s: count=%d calls=%d, want 2/2", v.name, count, calls)
		}
	}
}
