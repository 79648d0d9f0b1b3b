package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/plan"
	"disjunct/internal/session"
)

// Response paths as reported in QueryResponse.Path, under metric-safe
// names; the empty path is the fresh procedure. "coalesced" cannot occur
// with one client and is kept last, outside the reported six.
var pathNames = []string{"fast", "session", "brute", "portfolio_brute", "portfolio_fresh", "fresh", "coalesced"}

func pathIndex(p string) uint8 {
	switch p {
	case "":
		p = "fresh"
	case "portfolio:brute":
		p = "portfolio_brute"
	case "portfolio:fresh":
		p = "portfolio_fresh"
	}
	for i, n := range pathNames {
		if n == p {
			return uint8(i)
		}
	}
	return uint8(len(pathNames) - 1)
}

// maxReplay bounds how many distinct inputs the traced run replays
// through the layer functions.
const maxReplay = 3000

// replayed is one distinct input replayed through each layer's public
// function, timed from the benchmark.
type replayed struct {
	parse, compile, lookup, decide, brute time.Duration
	bruteOK                               bool
	class                                 plan.Class
}

// replayInput runs the layer functions the server runs for this input:
// db.Parse, session.Compile, Manager.Lookup on a warm manager,
// plan.Planner.Decide and (when eligible) plan.Brute.
func replayInput(in *input, mgr *session.Manager, pl *plan.Planner) (replayed, error) {
	var r replayed
	q := in.request()
	t := time.Now()
	d, err := db.Parse(q.DB)
	r.parse = time.Since(t)
	if err != nil {
		return r, err
	}
	t = time.Now()
	comp := session.Compile(q.DB, d)
	r.compile = time.Since(t)
	mgr.Intern(q.DB, d)
	t = time.Now()
	mgr.Lookup(q.DB)
	r.lookup = time.Since(t)
	if in.kind == "stream" {
		return r, nil
	}
	kind := map[string]session.Kind{"literal": session.KindLiteral, "formula": session.KindFormula, "model": session.KindModel}[in.kind]
	t = time.Now()
	dec := pl.Decide(comp, in.sem, kind)
	r.decide = time.Since(t)
	r.class = dec.Class
	if plan.BruteEligible(comp, in.sem, serveConfig().PlannerBruteAtoms) {
		var lit logic.Lit
		var f *logic.Formula
		switch in.kind {
		case "literal":
			if lit, err = parseLiteral(q.Literal, comp.D.Voc); err != nil {
				return r, err
			}
		case "formula":
			if f, err = logic.ParseFormula(q.Formula, comp.D.Voc); err != nil {
				return r, err
			}
		}
		t = time.Now()
		_, r.bruteOK = plan.Brute(context.Background(), comp, in.sem, kind, lit, f, serveConfig().PlannerBruteAtoms)
		r.brute = time.Since(t)
	}
	return r, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func p50(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the traced run's metrics and prints where the time
// goes. Span-derived and replayed metrics use the traced slices only;
// counter-derived ones cover the whole timed phase.
func perLayer(workload string, in *inputs, ph phase, v verification, tr *tracer, cnt map[string]int64, rt runtimeStats) []metric {
	spans := tr.byRequest()
	mgr := session.NewManager(session.Config{})
	pl := plan.New(plan.Config{BruteMaxAtoms: serveConfig().PlannerBruteAtoms, ExpensiveNP: serveConfig().PlannerExpensiveNP})
	replays := map[int]*replayed{}
	replayFor := func(idx int) *replayed {
		r, ok := replays[idx]
		if !ok && len(replays) < maxReplay {
			if rp, err := replayInput(&in.distinct[idx], mgr, pl); err == nil {
				r = &rp
			}
			replays[idx] = r
		}
		return r
	}

	var routerSelf, handler, overhead, queue []float64
	var parse, compile, lookup, decide, brute []float64
	var firstModel []float64
	var restNext, streamNP, streamModels, clientStream, refStream float64
	var npCalls, sigma2, confl, queries float64
	var refUS, refNP float64
	pathCount := map[string]float64{}
	pathTime := map[string]float64{}
	semServed := map[string]float64{}
	semFresh := map[string]float64{}
	semTime := map[string]float64{}
	// Where a Σ₂ᵖ-class request's time goes, summed over such requests.
	var sigma struct {
		n                                                             float64
		client, router, handler, parse, compile, decide, queue, solve float64
	}
	tracedQPS, _ := rate(ph, v, func(k int) bool { return k%2 == 1 })
	plainQPS, _ := rate(ph, v, func(k int) bool { return k%2 == 0 })

	for i, s := range ph.samples {
		inp := &in.distinct[s.in]
		stream := inp.kind == "stream"
		npCalls += float64(s.counters.NPCalls)
		sigma2 += float64(s.counters.Sigma2Calls)
		confl += float64(s.counters.SATConfl)
		if !stream {
			queries++
		}
		if !s.traced {
			continue
		}
		layers := spans[i]
		self := selfTimes(layers)
		if _, ok := layers[spanRouter]; ok {
			routerSelf = append(routerSelf, us(self[spanRouter]))
		}
		h, hasHandler := layers[spanWorker]
		if hasHandler {
			handler = append(handler, us(h))
			// The server's own solve_ms (streams: total_ms) and queue_ms
			// are the parts of the handler span that are not overhead.
			overhead = append(overhead, us(h)-(s.solveMS+s.queueMS)*1000)
		}
		ref := v.refs[s.in]
		refOK := ref != nil && ref.err == nil
		if refOK {
			refUS += us(ref.dur)
			refNP += float64(ref.counters.NPCalls)
		}
		r := replayFor(s.in)
		if r != nil {
			parse = append(parse, us(r.parse))
			compile = append(compile, us(r.compile))
			lookup = append(lookup, us(r.lookup))
		}
		if stream {
			clientStream += us(layers[spanClient])
			if refOK {
				firstModel = append(firstModel, us(ref.firstNext))
				restNext += us(ref.restNext)
				streamNP += float64(ref.counters.NPCalls)
				streamModels += float64(ref.count)
				refStream += us(ref.dur)
			}
			continue
		}
		if hasHandler {
			p := pathNames[s.path]
			pathCount[p]++
			pathTime[p] += us(h)
			semTime[inp.sem] += us(h)
		}
		queue = append(queue, s.queueMS)
		semServed[inp.sem] += msOf(layers[spanClient])
		if refOK {
			semFresh[inp.sem] += msOf(ref.dur)
		}
		if r == nil {
			continue
		}
		decide = append(decide, us(r.decide))
		if r.bruteOK {
			brute = append(brute, us(r.brute))
		}
		if r.class == plan.ClassSigma2 && hasHandler {
			sigma.n++
			sigma.client += us(self[spanClient])
			sigma.router += us(self[spanRouter])
			sigma.handler += us(h)
			sigma.parse += us(r.parse)
			sigma.compile += us(r.compile)
			sigma.decide += us(r.decide)
			sigma.queue += s.queueMS * 1000
			sigma.solve += s.solveMS * 1000
		}
	}

	n := float64(len(ph.samples))
	var totalHandler float64
	for _, t := range pathTime {
		totalHandler += t
	}
	var ms []metric
	add := func(name string, value float64, unit string) {
		ms = append(ms, metric{name: name, value: value, unit: unit})
	}
	add("cluster.router_self_us_p50", p50(routerSelf), "us")
	add("cluster.key_cache_hit_frac", frac(float64(cnt["router.key_cache_hits"]), float64(cnt["router.key_cache_hits"]+cnt["router.key_cache_misses"])), "frac")
	add("serve.handler_us_p50", p50(handler), "us")
	add("serve.overhead_us_p50", p50(overhead), "us")
	add("serve.queue_ms_mean", mean(queue), "ms")
	var traced float64
	for _, c := range pathCount {
		traced += c
	}
	for _, p := range pathNames[:6] {
		add("serve.path_frac."+p, frac(pathCount[p], traced), "frac")
	}
	for _, p := range pathNames[:6] {
		add("serve.path_time_frac."+p, frac(pathTime[p], totalHandler), "frac")
	}
	add("db.parse_us_p50", p50(parse), "us")
	add("session.compile_us_p50", p50(compile), "us")
	add("session.lookup_us_p50", p50(lookup), "us")
	add("session.compiled_hit_frac", frac(float64(cnt["sessions.compiled_hits"]), float64(cnt["sessions.compiled_hits"]+cnt["sessions.compiled_misses"])), "frac")
	add("session.memo_hit_frac", frac(float64(cnt["sessions.memo_hits"]), float64(cnt["sessions.warm_queries"])), "frac")
	add("session.fast_frac", frac(float64(cnt["sessions.fast_queries"]), queries), "frac")
	add("session.warm_frac", frac(float64(cnt["sessions.warm_queries"]), queries), "frac")
	add("session.compiled_evictions", float64(cnt["sessions.compiled_evictions"]), "count")
	add("plan.decide_us_p50", p50(decide), "us")
	add("plan.brute_us_p50", p50(brute), "us")
	add("plan.portfolio_races", float64(cnt["planner.portfolio_races"]), "count")
	add("plan.portfolio_win_brute_frac", frac(float64(cnt["planner.portfolio_win_brute"]), float64(cnt["planner.portfolio_races"])), "frac")
	for _, info := range semantics() {
		add("semantics."+info.Name+".fresh_ms_sum", semFresh[info.Name], "ms")
		add("serve."+info.Name+".served_ms_sum", semServed[info.Name], "ms")
	}
	add("oracle.np_calls_per_query", frac(npCalls, n), "count")
	add("oracle.sigma2_calls_per_query", frac(sigma2, n), "count")
	add("sat.conflicts_per_query", frac(confl, n), "count")
	add("oracle.us_per_np_call", frac(refUS, refNP), "us")
	add("models.first_model_us_p50", p50(firstModel), "us")
	// Each model after the first costs one Next call, and so does the
	// terminal one: as many later calls as models.
	add("models.next_model_us_mean", frac(restNext, streamModels), "us")
	add("models.np_calls_per_model", frac(streamNP, streamModels), "count")
	add("serve.stream_overhead_frac", frac(clientStream-refStream, clientStream), "frac")
	add("runtime.alloc_kb_per_query", frac(rt.allocBytes/1024, n), "KiB")
	add("runtime.gc_cycles_per_1k_queries", frac(rt.gcCycles*1000, n), "count")
	add("runtime.gc_cpu_frac", frac(rt.gcCPU, rt.totalCPU), "frac")
	add("trace.overhead_frac", 1-frac(tracedQPS, plainQPS), "frac")

	printWhere(workload, pathCount, pathTime, totalHandler, semTime)
	if clientStream > 0 {
		fmt.Printf("# where: %s client stream time: %.1f%% replayed enumeration (first model %.1f%%), %.1f%% serve, encode, flush and client\n",
			workload, 100*refStream/clientStream, 100*sum(firstModel)/clientStream, 100*(clientStream-refStream)/clientStream)
	}
	if sigma.n > 0 {
		k := 1 / sigma.n
		fmt.Printf("# where: Σ2p-class request, mean of %d (us): client self %.1f, router self %.1f, handler %.1f = queue %.1f + solve %.1f + rest %.1f; replayed parse %.1f, compile %.1f, decide %.1f\n",
			int(sigma.n), sigma.client*k, sigma.router*k, sigma.handler*k, sigma.queue*k, sigma.solve*k,
			(sigma.handler-sigma.queue-sigma.solve)*k, sigma.parse*k, sigma.compile*k, sigma.decide*k)
	}
	return ms
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return frac(sum(xs), float64(len(xs))) }

// printWhere prints the share of handler time by response path and by
// semantics.
func printWhere(workload string, count, time map[string]float64, total float64, sem map[string]float64) {
	if total == 0 {
		return
	}
	var n float64
	for _, c := range count {
		n += c
	}
	var parts []string
	for _, p := range pathNames {
		if count[p] > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%% of requests, %.1f%% of time", p, 100*count[p]/n, 100*time[p]/total))
		}
	}
	fmt.Printf("# where: %s handler time by path: %s\n", workload, strings.Join(parts, "; "))
	names := make([]string, 0, len(sem))
	for s := range sem {
		names = append(names, s)
	}
	sort.Slice(names, func(i, j int) bool { return sem[names[i]] > sem[names[j]] })
	parts = parts[:0]
	for _, s := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s, 100*sem[s]/total))
	}
	fmt.Printf("# where: %s handler time by semantics: %s\n", workload, strings.Join(parts, ", "))
}
