package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/session"
)

// BatchCase is one hot-database batch-vs-sequential comparison. The
// same query set (the session sweep's instance families, every
// registered-and-eligible semantics of the family combined into one
// mixed batch) runs (a) sequentially — paying a database compile per
// query, the cost shape of N standalone requests against a cold
// server — and (b) through Manager.Batch with ONE shared compile and
// one session checkout per (database, semantics) group. runBatchSweep
// asserts that every per-query verdict is identical, that the batch
// NP-call total equals the sequential total, and that the compile
// amortization ratio (N compiles vs one) exceeds 1; wall-clock is
// reported, never gated.
type BatchCase struct {
	Name           string  `json:"name"`
	Atoms          int     `json:"atoms"`
	Queries        int     `json:"queries"`
	Semantics      int     `json:"semantics_groups"`
	SeqNP          int64   `json:"seq_np_calls"`
	BatchNP        int64   `json:"batch_np_calls"`
	SeqCompileMS   float64 `json:"seq_compile_ms"`
	BatchCompileMS float64 `json:"batch_compile_ms"`
	Amortization   float64 `json:"compile_amortization"`
	SeqMS          float64 `json:"seq_ms"`
	BatchMS        float64 `json:"batch_ms"`
	Speedup        float64 `json:"speedup"`
}

// StreamCase is one buffered-vs-iterator enumeration comparison on a
// seeded instance: models.Drain pushing every model into a buffer (the
// time a buffered response makes the client wait before the FIRST
// model is visible; PushNP is its NP total) against pulling the same
// iterator through Next and its time-to-first-model. runStreamSweep
// asserts that the pulled iterator yields the exact model set, count,
// and NP-call total of the drained run and terminates with the typed
// completion error; the TTFM ratio is reported, never gated.
type StreamCase struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Atoms        int     `json:"atoms"`
	Models       int     `json:"models"`
	PushNP       int64   `json:"push_np_calls"`
	IterNP       int64   `json:"iter_np_calls"`
	BufferedMS   float64 `json:"buffered_ms"`
	FirstModelMS float64 `json:"first_model_ms"`
	IterTotalMS  float64 `json:"iter_total_ms"`
	TTFMSpeedup  float64 `json:"ttfm_speedup"`
}

// batchQuery is one entry of the mixed workload, tagged with the
// semantics it targets (the batch planner groups by this).
type batchQuery struct {
	sem  string
	kind session.Kind
	lit  logic.Lit
	f    *logic.Formula
	text string
}

// batchWorkload builds the mixed query set for one instance family:
// per-atom literals of both polarities plus a model-existence query
// for every semantics, and a formula query where the route supports
// it — ordered semantics-by-semantics so the per-engine query order is
// identical on the sequential and batched routes.
func batchWorkload(d *db.DB, frag session.Fragment, sems []string) []batchQuery {
	var qs []batchQuery
	for _, sem := range sems {
		for a := 0; a < d.N(); a++ {
			for _, l := range []logic.Lit{logic.PosLit(logic.Atom(a)), logic.NegLit(logic.Atom(a))} {
				qs = append(qs, batchQuery{sem: sem, kind: session.KindLiteral, lit: l, text: d.Voc.LitString(l)})
			}
		}
		qs = append(qs, batchQuery{sem: sem, kind: session.KindModel})
		if frag != session.FragGeneral || sessionFormulaRoutes[sem] {
			f := logic.Or(logic.And(logic.AtomF(0), logic.Not(logic.AtomF(1))), logic.AtomF(2))
			qs = append(qs, batchQuery{sem: sem, kind: session.KindFormula, f: f, text: f.String(d.Voc)})
		}
	}
	return qs
}

// runBatchWorkload drives one instance family through both routes and
// audits the batch contract.
func runBatchWorkload(name string, d *db.DB, sems []string) (BatchCase, error) {
	bc := BatchCase{Name: name, Atoms: d.N(), Semantics: len(sems)}
	text := d.String()
	frag := session.Compile(text, d).Frag
	qs := batchWorkload(d, frag, sems)
	bc.Queries = len(qs)
	ctx := context.Background()

	// Sequential route: every query pays its own database compile (the
	// cost N standalone requests pay on a server without a warm
	// compiled-DB hit), then runs through Manager.Query one at a time.
	var seqCompileT time.Duration
	for range qs {
		t0 := time.Now()
		session.Compile(text, d)
		seqCompileT += time.Since(t0)
	}
	mgrSeq := session.NewManager(session.Config{})
	compSeq := mgrSeq.InternDB(d)
	verdicts := make([]bool, len(qs))
	var seqQueryT time.Duration
	for i, q := range qs {
		t0 := time.Now()
		res, handled := mgrSeq.Query(ctx, compSeq, session.Request{
			Sem: q.sem, Kind: q.kind, Lit: q.lit, F: q.f, QueryText: q.text,
		})
		seqQueryT += time.Since(t0)
		if !handled {
			return bc, fmt.Errorf("batch %s: sequential %s/%s %q not handled by the session layer", name, q.sem, q.kind, q.text)
		}
		if res.Err != nil {
			return bc, fmt.Errorf("batch %s: sequential %s/%s %q: %v", name, q.sem, q.kind, q.text, res.Err)
		}
		verdicts[i] = res.Holds
		bc.SeqNP += res.Counters.NPCalls
	}

	// Batched route: one compile, one Manager.Batch call, one checkout
	// per semantics group.
	t0 := time.Now()
	session.Compile(text, d)
	batchCompileT := time.Since(t0)
	mgrB := session.NewManager(session.Config{})
	compB := mgrB.InternDB(d)
	reqs := make([]session.Request, len(qs))
	for i, q := range qs {
		reqs[i] = session.Request{Sem: q.sem, Kind: q.kind, Lit: q.lit, F: q.f, QueryText: q.text}
	}
	t0 = time.Now()
	outs := mgrB.Batch(ctx, compB, reqs)
	batchQueryT := time.Since(t0)
	for i, out := range outs {
		q := qs[i]
		if !out.Handled {
			return bc, fmt.Errorf("batch %s: %s/%s %q not handled by Manager.Batch", name, q.sem, q.kind, q.text)
		}
		if out.Res.Err != nil {
			return bc, fmt.Errorf("batch %s: %s/%s %q: %v", name, q.sem, q.kind, q.text, out.Res.Err)
		}
		if out.Res.Holds != verdicts[i] {
			return bc, fmt.Errorf("batch %s: %s/%s %q verdict diverged: sequential %v, batch %v",
				name, q.sem, q.kind, q.text, verdicts[i], out.Res.Holds)
		}
		bc.BatchNP += out.Res.Counters.NPCalls
	}

	// The two audited invariants: identical oracle work, amortized
	// compile cost.
	if bc.BatchNP != bc.SeqNP {
		return bc, fmt.Errorf("batch %s: NP total diverged: sequential %d, batch %d", name, bc.SeqNP, bc.BatchNP)
	}
	if batchCompileT <= 0 {
		batchCompileT = time.Nanosecond
	}
	bc.Amortization = float64(seqCompileT) / float64(batchCompileT)
	if bc.Amortization <= 1 {
		return bc, fmt.Errorf("batch %s: compile amortization %.2f not > 1 (seq %v over %d queries, batch %v)",
			name, bc.Amortization, seqCompileT, len(qs), batchCompileT)
	}
	bc.SeqCompileMS = float64(seqCompileT.Microseconds()) / 1e3
	bc.BatchCompileMS = float64(batchCompileT.Microseconds()) / 1e3
	bc.SeqMS = float64((seqCompileT + seqQueryT).Microseconds()) / 1e3
	bc.BatchMS = float64((batchCompileT + batchQueryT).Microseconds()) / 1e3
	if batchCompileT+batchQueryT > 0 {
		bc.Speedup = float64(seqCompileT+seqQueryT) / float64(batchCompileT+batchQueryT)
	}
	return bc, nil
}

// runBatchSweep is the batch-amortization section of RunParallel,
// reusing the session sweep's instance families so the numbers sit on
// known ground.
func runBatchSweep(scale Scale, w io.Writer, rep *ParallelReport) error {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  batched execution (per-query compiles + sequential vs one compile + Manager.Batch):\n")
	fmt.Fprintf(w, "  %-14s %4s %4s %9s %9s %10s %10s %8s %10s %10s %8s\n",
		"instance", "q", "sems", "NP-seq", "NP-batch", "compile×N", "compile×1", "amort", "seq", "batch", "speedup")

	for _, fam := range sessionDBs(scale) {
		bc, err := runBatchWorkload(fam.name, fam.db, fam.sems)
		if err != nil {
			return err
		}
		rep.Batch = append(rep.Batch, bc)
		fmt.Fprintf(w, "  %-14s %4d %4d %9d %9d %10s %10s %7.1fx %10s %10s %7.1fx\n",
			bc.Name, bc.Queries, bc.Semantics, bc.SeqNP, bc.BatchNP,
			fmtDuration(time.Duration(bc.SeqCompileMS*float64(time.Millisecond))),
			fmtDuration(time.Duration(bc.BatchCompileMS*float64(time.Millisecond))),
			bc.Amortization,
			fmtDuration(time.Duration(bc.SeqMS*float64(time.Millisecond))),
			fmtDuration(time.Duration(bc.BatchMS*float64(time.Millisecond))),
			bc.Speedup)
	}
	return nil
}

// streamDBs builds the seeded instance set of the TTFM sweep: minimal
// enumeration on NP-heavy instances (where per-model minimization work
// makes buffering expensive) and all-models enumeration on a smaller
// instance with a dense model space.
func streamDBs(scale Scale) []struct {
	name string
	kind string
	db   *db.DB
} {
	rng := rand.New(rand.NewSource(91))
	minN, allN, cyc := 20, 12, 6
	if scale == Full {
		minN, allN, cyc = 28, 14, 8
	}
	return []struct {
		name string
		kind string
		db   *db.DB
	}{
		{fmt.Sprintf("min-rand-n%d", minN), "minimal", gen.Random(rng, gen.Positive(minN, 3*minN/2))},
		{fmt.Sprintf("min-col-cyc%d", cyc), "minimal", gen.ColoringDB(gen.Cycle(cyc), 3)},
		{fmt.Sprintf("all-rand-n%d", allN), "models", gen.Random(rng, gen.Positive(allN, 2*allN))},
	}
}

// runStreamWorkload enumerates one instance twice: pushed through
// models.Drain (buffered: all models collected before anything is
// visible) and pulled through the iterator's Next, auditing
// set/count/NP identity and measuring time-to-first-model.
func runStreamWorkload(name, kind string, d *db.DB) (StreamCase, error) {
	sc := StreamCase{Name: name, Kind: kind, Atoms: d.N()}
	ctx := context.Background()

	pushOra := oracle.NewNP()
	pushEng := models.NewEngine(d, pushOra)
	pushKeys := map[string]bool{}
	t0 := time.Now()
	pushIt := pushEng.IterateModels(0)
	if kind == "minimal" {
		pushIt = pushEng.IterateMinimalModels(0)
	}
	if _, err := models.Drain(pushIt, func(m logic.Interp) bool { pushKeys[m.Key()] = true; return true }); err != nil {
		return sc, fmt.Errorf("stream %s: drained enumeration interrupted: %v", name, err)
	}
	bufferedT := time.Since(t0)
	sc.Models = len(pushKeys)
	sc.PushNP = pushOra.Counters().NPCalls

	iterOra := oracle.NewNP()
	iterEng := models.NewEngine(d, iterOra)
	var it models.ModelIterator
	if kind == "minimal" {
		it = iterEng.IterateMinimalModels(0)
	} else {
		it = iterEng.IterateModels(0)
	}
	defer it.Close()
	iterKeys := map[string]bool{}
	var firstT time.Duration
	t0 = time.Now()
	for {
		m, err := it.Next(ctx)
		if err != nil {
			if err != io.EOF {
				return sc, fmt.Errorf("stream %s: iterator terminated %v, want io.EOF", name, err)
			}
			break
		}
		if len(iterKeys) == 0 {
			firstT = time.Since(t0)
		}
		iterKeys[m.Key()] = true
	}
	iterT := time.Since(t0)
	sc.IterNP = iterOra.Counters().NPCalls

	if len(iterKeys) != len(pushKeys) {
		return sc, fmt.Errorf("stream %s: iterator yielded %d models, push %d", name, len(iterKeys), len(pushKeys))
	}
	for k := range pushKeys {
		if !iterKeys[k] {
			return sc, fmt.Errorf("stream %s: model missing from iterator enumeration", name)
		}
	}
	if sc.IterNP != sc.PushNP {
		return sc, fmt.Errorf("stream %s: NP total diverged: push %d, iterator %d", name, sc.PushNP, sc.IterNP)
	}

	sc.BufferedMS = float64(bufferedT.Microseconds()) / 1e3
	sc.FirstModelMS = float64(firstT.Microseconds()) / 1e3
	sc.IterTotalMS = float64(iterT.Microseconds()) / 1e3
	if firstT > 0 {
		sc.TTFMSpeedup = float64(bufferedT) / float64(firstT)
	}
	return sc, nil
}

// runStreamSweep is the time-to-first-model section of RunParallel:
// buffered enumeration pushed through models.Drain vs the pulled
// iterator, with the set/count/NP-identity invariants enforced inline.
func runStreamSweep(scale Scale, w io.Writer, rep *ParallelReport) error {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  streaming enumeration (buffered Drain vs pull iterator, time to first model):\n")
	fmt.Fprintf(w, "  %-14s %-8s %6s %8s %9s %10s %10s %10s %8s\n",
		"instance", "kind", "atoms", "models", "NP-calls", "buffered", "first", "drain", "TTFM")

	for _, fam := range streamDBs(scale) {
		sc, err := runStreamWorkload(fam.name, fam.kind, fam.db)
		if err != nil {
			return err
		}
		rep.Stream = append(rep.Stream, sc)
		fmt.Fprintf(w, "  %-14s %-8s %6d %8d %9d %10s %10s %10s %7.1fx\n",
			sc.Name, sc.Kind, sc.Atoms, sc.Models, sc.PushNP,
			fmtDuration(time.Duration(sc.BufferedMS*float64(time.Millisecond))),
			fmtDuration(time.Duration(sc.FirstModelMS*float64(time.Millisecond))),
			fmtDuration(time.Duration(sc.IterTotalMS*float64(time.Millisecond))),
			sc.TTFMSpeedup)
	}
	return nil
}
