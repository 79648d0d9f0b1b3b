package models

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/dbtest"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
)

// pull drains an iterator via Next(ctx) without Close, returning the
// models and the terminal error.
func pull(t *testing.T, it ModelIterator, ctx context.Context) ([]logic.Interp, error) {
	t.Helper()
	var out []logic.Interp
	for {
		m, err := it.Next(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, m.Clone())
	}
}

// signatures returns the sorted (P,Q)-signature keys of ms, and
// whether no two models of ms share one.
func signatures(ms []logic.Interp, part Partition, n int) ([]string, bool) {
	seen := map[string]bool{}
	for _, m := range ms {
		seen[pqKey(m, part, n)] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, len(seen) == len(ms)
}

// TestIterateModelsMatchesReference: the serial all-models iterator
// completes with exactly M(DB), each model once, and stays terminal
// after Close. Order and NP charging are pinned by
// TestEnumerationGoldenDigest.
func TestIterateModelsMatchesReference(t *testing.T) {
	for i, d := range randomDBs(101, 20) {
		it := NewEngine(d, nil).IterateModels(0)
		got, err := pull(t, it, nil)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("db %d: terminal %v, want io.EOF", i, err)
		}
		if want := refsem.Models(d); !equalKeys(sortedKeys(got), sortedKeys(want)) {
			t.Fatalf("db %d: %d models, reference %d", i, len(got), len(want))
		}
		it.Close()
		if _, err := it.Next(nil); !errors.Is(err, io.EOF) {
			t.Fatalf("db %d: Next after Close = %v", i, err)
		}
	}
}

// TestIterateMinimalModelsMatchesReference: the serial minimal-model
// iterators complete with exactly MM(DB), and with one representative
// of every MM(DB;P;Z) signature for a random partition, each
// representative itself (P;Z)-minimal.
func TestIterateMinimalModelsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for i, d := range randomDBs(103, 20) {
		got, err := pull(t, NewEngine(d, nil).IterateMinimalModels(0), nil)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("db %d: terminal %v, want io.EOF", i, err)
		}
		if want := refsem.MinimalModels(d); !equalKeys(sortedKeys(got), sortedKeys(want)) {
			t.Fatalf("db %d: %d minimal models, reference %d", i, len(got), len(want))
		}

		n := d.N()
		p, q := randomPartition(rng, n)
		part := partitionOf(n, p, q)
		want := refsem.MinimalModelsPZ(d, p, q)
		got, err = pull(t, NewEngine(d, nil).IterateMinimalModelsPZ(part, 0), nil)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("db %d PZ: terminal %v, want io.EOF", i, err)
		}
		gotSig, distinct := signatures(got, part, n)
		wantSig, _ := signatures(want, part, n)
		if !distinct || !equalKeys(gotSig, wantSig) {
			t.Fatalf("db %d PZ: %d representatives (distinct=%v), reference %d signatures", i, len(got), distinct, len(wantSig))
		}
		inRef := keySet(want)
		for _, m := range got {
			if !inRef[m.Key()] {
				t.Fatalf("db %d PZ: representative %s is not (P;Z)-minimal", i, m.Key())
			}
		}
	}
}

// TestIterateParMatchesReference: the pump-backed worker-pool
// iterators complete with M(DB), MM(DB) and the MM(DB;P;Z) signature
// set, and leak no producer goroutine.
func TestIterateParMatchesReference(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(107))
	opt := ParOptions{Workers: 4}
	for i, d := range randomDBs(107, 12) {
		n := d.N()
		p, q := randomPartition(rng, n)
		part := partitionOf(n, p, q)
		for _, c := range []struct {
			name string
			it   ModelIterator
			want []logic.Interp
			key  func([]logic.Interp) []string
		}{
			{"models", NewEngine(d, nil).IterateModelsPar(0, opt), refsem.Models(d), sortedKeys},
			{"minimal", NewEngine(d, nil).IterateMinimalModelsPar(0, opt), refsem.MinimalModels(d), sortedKeys},
			{"pz", NewEngine(d, nil).IterateMinimalModelsPZPar(part, 0, opt), refsem.MinimalModelsPZ(d, p, q),
				func(ms []logic.Interp) []string { keys, _ := signatures(ms, part, n); return keys }},
		} {
			got, err := pull(t, c.it, nil)
			c.it.Close()
			if !errors.Is(err, io.EOF) {
				t.Fatalf("db %d %s: terminal %v, want io.EOF", i, c.name, err)
			}
			if !equalKeys(c.key(got), c.key(c.want)) {
				t.Fatalf("db %d %s: %d yields, reference %d", i, c.name, len(got), len(c.want))
			}
		}
	}
	settleGoroutines(t, base)
}

// TestIteratorLimit: the limit terminal is ErrLimit, sticky, with
// exactly limit models delivered — serial and parallel.
func TestIteratorLimit(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dbtest.MustParse("a | b. c | d. e | f.")
	for name, mk := range map[string]func() ModelIterator{
		"serial":     func() ModelIterator { return NewEngine(d, nil).IterateModels(3) },
		"serial-min": func() ModelIterator { return NewEngine(d, nil).IterateMinimalModels(3) },
		"par":        func() ModelIterator { return NewEngine(d, nil).IterateModelsPar(3, ParOptions{Workers: 4}) },
		"par-min":    func() ModelIterator { return NewEngine(d, nil).IterateMinimalModelsPar(3, ParOptions{Workers: 4}) },
	} {
		it := mk()
		got, err := pull(t, it, nil)
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: terminal %v, want ErrLimit", name, err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: %d models, want 3", name, len(got))
		}
		if _, err2 := it.Next(nil); !errors.Is(err2, ErrLimit) {
			t.Fatalf("%s: terminal not sticky: %v", name, err2)
		}
		it.Close()
	}
	settleGoroutines(t, base)
}

// TestIteratorBudgetTrip: a tight NP budget surfaces as a typed
// terminal error from Next, not a panic, serial and parallel alike.
func TestIteratorBudgetTrip(t *testing.T) {
	base := runtime.NumGoroutine()
	for i, d := range randomDBs(211, 8) {
		for _, par := range []bool{false, true} {
			o := oracle.NewNP().WithBudget(budget.New(context.Background(),
				budget.Limits{NPCalls: 2, Deadline: time.Hour}))
			e := NewEngine(d, o)
			var it ModelIterator
			if par {
				it = e.IterateMinimalModelsPar(0, ParOptions{Workers: 4})
			} else {
				it = e.IterateMinimalModels(0)
			}
			_, err := pull(t, it, nil)
			it.Close()
			if errors.Is(err, io.EOF) || errors.Is(err, ErrLimit) {
				continue // tiny DB finished within budget — fine
			}
			if !budget.Interrupted(err) {
				t.Fatalf("db %d par=%v: terminal %v is not a typed budget cause", i, par, err)
			}
		}
	}
	settleGoroutines(t, base)
}

// TestIteratorContextCancel: cancelling the ctx passed to Next
// surfaces budget.ErrCanceled and Close reclaims the producer.
func TestIteratorContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dbtest.MustParse("a | b. c | d. e | f. g | h.")
	ctx, cancel := context.WithCancel(context.Background())
	it := NewEngine(d, nil).IterateModelsPar(0, ParOptions{Workers: 2})
	if _, err := it.Next(ctx); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	if _, err := it.Next(ctx); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("Next after cancel = %v, want ErrCanceled", err)
	}
	it.Close()
	settleGoroutines(t, base)

	// Serial variant honours ctx too.
	it2 := NewEngine(d, nil).IterateModels(0)
	if _, err := it2.Next(ctx); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("serial Next on dead ctx = %v, want ErrCanceled", err)
	}
	it2.Close()
}

// TestIteratorCloseEarly: closing after one model reclaims all
// producer goroutines and later Next calls return the terminal.
func TestIteratorCloseEarly(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dbtest.MustParse("a | b. c | d. e | f. g | h. i | j.")
	for i := 0; i < 20; i++ {
		it := NewEngine(d, nil).IterateModelsPar(0, ParOptions{Workers: 4})
		if _, err := it.Next(nil); err != nil {
			t.Fatalf("iter %d: first Next: %v", i, err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("iter %d: Close: %v", i, err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("iter %d: second Close: %v", i, err)
		}
	}
	settleGoroutines(t, base)
}

// TestDrainMapsTerminals: Drain converts io.EOF/ErrLimit to nil and
// passes budget causes through.
func TestDrainMapsTerminals(t *testing.T) {
	d := dbtest.MustParse("a | b. c | d.")
	count, err := Drain(NewEngine(d, nil).IterateModels(0), func(logic.Interp) bool { return true })
	if err != nil || count == 0 {
		t.Fatalf("complete drain: count=%d err=%v", count, err)
	}
	count, err = Drain(NewEngine(d, nil).IterateModels(2), func(logic.Interp) bool { return true })
	if err != nil || count != 2 {
		t.Fatalf("limited drain: count=%d err=%v", count, err)
	}
	count, err = Drain(NewEngine(d, nil).IterateModels(0), func(logic.Interp) bool { return false })
	if err != nil || count != 1 {
		t.Fatalf("refused drain: count=%d err=%v", count, err)
	}
}
