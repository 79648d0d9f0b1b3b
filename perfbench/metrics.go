package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// verification is the outcome of checking every timed answer against
// its reference.
type verification struct {
	ok        []bool
	okCount   int
	divergent []int // sample indices whose verdict or model set differs
	refErrors int
	notes     []string
	refs      map[int]*reference // by distinct input
}

const maxNotes = 20

// verify checks each sample: a non-200, a typed incomplete, a stream
// that did not end complete, or a verdict / model set that differs from
// the reference counts as failed; the last kind is also divergent.
func verify(in *inputs, samples []sample) verification {
	v := verification{ok: make([]bool, len(samples)), refs: map[int]*reference{}}
	note := func(format string, args ...any) {
		if len(v.notes) < maxNotes {
			v.notes = append(v.notes, fmt.Sprintf(format, args...))
		}
	}
	for i, s := range samples {
		inp := &in.distinct[s.in]
		ref := v.refs[s.in]
		if ref == nil {
			var r reference
			if inp.kind == "stream" {
				r = streamReference(inp)
			} else {
				r = queryReference(inp)
			}
			ref = &r
			v.refs[s.in] = ref
		}
		switch {
		case ref.err != nil:
			v.refErrors++
			note("request %d (%s %s): reference: %v", i, inp.sem, inp.kind, ref.err)
		case s.err != "":
			note("request %d (%s %s): %s", i, inp.sem, inp.kind, s.err)
		case inp.kind == "stream" && (s.digest != ref.digest || s.models != ref.count):
			v.divergent = append(v.divergent, i)
			note("request %d: divergent model set: %d models served, %d by reference", i, s.models, ref.count)
		case inp.kind != "stream" && s.holds != ref.holds:
			v.divergent = append(v.divergent, i)
			q := inp.request()
			note("request %d (%s %s %q on %q): divergent verdict: served %v, reference %v", i, inp.sem, inp.kind, q.Literal+q.Formula, q.DB, s.holds, ref.holds)
		default:
			v.ok[i] = true
			v.okCount++
		}
	}
	if len(v.divergent) > 0 {
		v.notes = append(v.notes, fmt.Sprintf("divergent request indices: %v", v.divergent))
	}
	return v
}

// rate returns verified requests and verified records (stream models,
// or verdicts) per second over the slices keep selects. A slice the
// phase did not reach (inputs exhausted early) adds no time; the slice
// it ended in adds the time actually spent in it.
func rate(ph phase, v verification, keep func(k int) bool) (qps, mps float64) {
	var n, m, secs float64
	last := -1
	for i, s := range ph.samples {
		last = max(last, s.slice)
		if v.ok[i] && keep(s.slice) {
			n++
			m += float64(max(s.models, 1)) // a verdict is one record
		}
	}
	for k := 0; k <= last; k++ {
		if keep(k) {
			secs += min(ph.sliceDur, ph.elapsed-time.Duration(k)*ph.sliceDur).Seconds()
		}
	}
	if secs == 0 {
		return 0, 0
	}
	return n / secs, m / secs
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the untraced run's metrics.
func endToEnd(workload string, in *inputs, ph phase, v verification, setup, heap float64) []metric {
	qps, mps := rate(ph, v, func(int) bool { return true })
	printSlowest(in, ph.samples, 5)
	var lat, ttfm []float64
	for i, s := range ph.samples {
		if v.ok[i] {
			lat = append(lat, msOf(s.lat))
			ttfm = append(ttfm, msOf(s.ttfm))
		} else {
			// A failed request misses every latency limit: it counts as
			// taking the whole phase.
			lat = append(lat, msOf(ph.elapsed))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(ttfm)
	n := len(ph.samples)
	frac := 0.0
	if n > 0 {
		frac = float64(v.okCount) / float64(n)
	}
	beyond99 := n - int(math.Ceil(0.99*float64(n)))
	unit := "verdicts"
	if workload == "stream-minimal" {
		unit = "models"
	}
	return []metric{
		{"throughput_qps", qps, "1/s", fmt.Sprintf("%d verified of %d attempted in %.2fs", v.okCount, n, ph.elapsed.Seconds())},
		{"latency_p50_ms", quantile(lat, 0.50), "ms", fmt.Sprintf("n=%d", n)},
		{"latency_p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("n=%d, %d samples beyond", n, beyond99)},
		{"completed_frac", frac, "frac", fmt.Sprintf("%d/%d, %d divergent", v.okCount, n, len(v.divergent))},
		{"setup_s", setup, "s", fmt.Sprintf("median of %d constructions + warm-ups", setupRuns[workload])},
		{"live_heap_mb", heap, "MB", "heap after forced GC at the end of the timed phase, minus the pre-setup heap"},
		{"ttfm_p50_ms", quantile(ttfm, 0.50), "ms", fmt.Sprintf("n=%d; time to the first %s line", len(ttfm), map[bool]string{true: "model", false: "response"}[workload == "stream-minimal"])},
		{"models_per_s", mps, "1/s", unit + " delivered per second"},
	}
}

// runtimeStats is a snapshot of the Go runtime counters the per-layer
// metrics use.
type runtimeStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{val(0), val(1), val(2), val(3)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// printSlowest lists the slowest requests of the phase.
func printSlowest(in *inputs, samples []sample, k int) {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return samples[idx[a]].lat > samples[idx[b]].lat })
	for _, i := range idx[:min(k, len(idx))] {
		s, inp := samples[i], &in.distinct[samples[i].in]
		fmt.Printf("# slow: request %d %.1f ms: %s %s, %d atoms, path %s, solve %.1f ms\n",
			i, msOf(s.lat), inp.sem, inp.kind, inp.atoms, pathNames[s.path], s.solveMS)
	}
}
