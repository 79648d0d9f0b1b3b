package models

import (
	"fmt"
	"math/rand"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
)

// benchDBs returns generator instances with nontrivial minimal-model
// sets: random positive DDBs and a 3-colouring cycle.
func benchDBs() map[string]*db.DB {
	rng := rand.New(rand.NewSource(1))
	return map[string]*db.DB{
		"rand-n30": gen.Random(rng, gen.Positive(30, 45)),
		"rand-n40": gen.Random(rng, gen.Positive(40, 60)),
		"col-cyc7": gen.ColoringDB(gen.Cycle(7), 3),
	}
}

func benchMinimalModels(b *testing.B, iterate func(e *Engine) ModelIterator) {
	for name, d := range benchDBs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Drain(iterate(NewEngine(d, nil)), func(logic.Interp) bool { return true })
			}
		})
	}
}

func BenchmarkMinimalModelsSerial(b *testing.B) {
	benchMinimalModels(b, func(e *Engine) ModelIterator { return e.IterateMinimalModels(0) })
}

func BenchmarkMinimalModelsPar(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			benchMinimalModels(b, func(e *Engine) ModelIterator {
				return e.IterateMinimalModelsPar(0, ParOptions{Workers: workers})
			})
		})
	}
}

func BenchmarkEnumerateModelsPar(b *testing.B) {
	d := gen.ColoringDB(gen.Cycle(7), 3)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := NewEngine(d, nil).IterateModelsPar(0, ParOptions{Workers: workers})
				Drain(it, func(logic.Interp) bool { return true })
			}
		})
	}
}
