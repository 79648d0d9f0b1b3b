package models

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
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

// BenchmarkMinimalModelsStreamShape enumerates MM(DB) serially over the
// stream-shaped set (streamShapeDBs), one pass per iteration, and
// reports the cost per yielded model.
func BenchmarkMinimalModelsStreamShape(b *testing.B) {
	dbs := streamShapeDBs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	o := oracle.NewNP()
	var yielded int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dbs {
			n, _ := Drain(NewEngine(d, o).IterateMinimalModels(0), func(logic.Interp) bool { return true })
			yielded += n
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	per := float64(yielded)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/model")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/per, "allocs/model")
	b.ReportMetric(float64(o.Counters().NPCalls)/per, "NP/model")
}
