package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/par"
)

// ParallelCase is one instance family's serial-vs-parallel
// minimal-model enumeration comparison. The NP-call counts are the
// complexity-shape evidence: SerialNP is the strictly sequential
// signature-blocking algorithm's count; ParNP is the region-decomposed
// enumerator's count, which RunParallel asserts to be IDENTICAL for
// one worker and for Workers workers — parallelism moves wall-clock,
// never the oracle-call shape.
type ParallelCase struct {
	Name     string  `json:"name"`
	Atoms    int     `json:"atoms"`
	Models   int     `json:"minimal_models"`
	SerialMS float64 `json:"serial_ms"`
	Par1MS   float64 `json:"par1_ms"`
	ParNMS   float64 `json:"parN_ms"`
	SerialNP int64   `json:"serial_np_calls"`
	ParNP    int64   `json:"par_np_calls"`
}

// PoolCase compares repeated oracle workloads with SAT-solver pooling
// off (a fresh solver allocated per NP call) and on (solvers recycled
// through sync.Pool via Solver.Reset). Verdicts and call counts are
// identical by construction; only allocation behaviour differs.
type PoolCase struct {
	Name     string  `json:"name"`
	NPCalls  int64   `json:"np_calls"`
	FreshMS  float64 `json:"fresh_ms"`
	PooledMS float64 `json:"pooled_ms"`
}

// OneShotCase is one (instance family × semantics) run of the
// one-shot-Sat workload: HasModel, literal inference over every atom,
// one formula entailment and serial (P;Z)-minimal-model enumeration,
// then the same partition's worker-pool enumeration. RunParallel
// asserts that the worker-pool (P,Q)-signature set and NP-call total
// are identical for one and N workers; the GCWA rows cover full
// minimisation and the ECWA rows a ⟨P;Q;Z⟩ partition with all three
// parts non-empty, the only gated partitioned worker-pool enumeration.
//
// ParallelReport emits these rows under the "cache" JSON key because
// the committed benchgate baselines pin np_calls and par_np_calls
// under that name; a new key would leave both counters ungated.
type OneShotCase struct {
	Name      string  `json:"name"`
	Semantics string  `json:"semantics"`
	Atoms     int     `json:"atoms"`
	NPCalls   int64   `json:"np_calls"` // serial workload total
	MS        float64 `json:"ms"`
	Confl     int64   `json:"confl"`
	// ParNP is the NP-call total of the worker-pool (P;Q;Z)-minimal-
	// model enumeration, asserted identical for 1 and N workers.
	ParNP int64 `json:"par_np_calls"`
}

// ParallelReport is the data behind the "Parallel oracle layer"
// section of the report (and the -json artefact).
type ParallelReport struct {
	Workers  int            `json:"workers"`
	Parallel []ParallelCase `json:"parallel"`
	Pool     []PoolCase     `json:"solver_pool"`
	OneShot  []OneShotCase  `json:"cache"`
	Session  []SessionCase  `json:"session,omitempty"`
	Batch    []BatchCase    `json:"batch,omitempty"`
	Stream   []StreamCase   `json:"stream,omitempty"`
	Store    []StoreCase    `json:"store,omitempty"`
	Cluster  []ClusterCase  `json:"cluster,omitempty"`
	Planner  []PlannerCase  `json:"planner,omitempty"`
}

func parallelDBs(scale Scale) []struct {
	name string
	db   *db.DB
} {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{20, 28}
	cyc := 6
	if scale == Full {
		sizes = []int{30, 40}
		cyc = 8
	}
	var out []struct {
		name string
		db   *db.DB
	}
	for _, n := range sizes {
		out = append(out, struct {
			name string
			db   *db.DB
		}{fmt.Sprintf("rand-pos-n%d", n), gen.Random(rng, gen.Positive(n, 3*n/2))})
	}
	out = append(out, struct {
		name string
		db   *db.DB
	}{fmt.Sprintf("col-cyc%d", cyc), gen.ColoringDB(gen.Cycle(cyc), 3)})
	return out
}

// RunParallel measures serial vs worker-pool minimal-model enumeration
// and fresh vs pooled solver allocation, writing a human-readable
// section to w and returning the structured report. It FAILS (returns
// an error) if the parallel path's model set deviates from the serial
// one or its NP-call total varies with the worker count — the
// invariants EXPERIMENTS.md documents.
func RunParallel(scale Scale, w io.Writer) (*ParallelReport, error) {
	workers := par.Workers(0)
	rep := &ParallelReport{Workers: workers}

	fmt.Fprintln(w, "Parallel oracle layer")
	fmt.Fprintln(w, "=====================")
	fmt.Fprintf(w, "  %d worker(s) available; par1 = pool pinned to one worker\n\n", workers)
	fmt.Fprintf(w, "  %-14s %6s %8s %10s %10s %10s %10s %8s\n",
		"instance", "atoms", "|MM|", "serial", "par1", "parN", "NP-serial", "NP-par")

	collect := func(d *db.DB, run func(e *models.Engine, keys map[string]bool) int) (map[string]bool, int64, time.Duration) {
		o := oracle.NewNP()
		e := models.NewEngine(d, o)
		keys := map[string]bool{}
		start := time.Now()
		run(e, keys)
		return keys, o.Counters().NPCalls, time.Since(start)
	}

	for _, pc := range parallelDBs(scale) {
		d := pc.db
		serialKeys, serialNP, serialT := collect(d, func(e *models.Engine, keys map[string]bool) int {
			return e.MinimalModels(0, func(m logic.Interp) bool {
				keys[m.Key()] = true
				return true
			})
		})
		parRun := func(workers int) (map[string]bool, int64, time.Duration) {
			return collect(d, func(e *models.Engine, keys map[string]bool) int {
				return e.MinimalModelsPar(0, func(m logic.Interp) bool {
					keys[m.Key()] = true
					return true
				}, models.ParOptions{Workers: workers})
			})
		}
		par1Keys, par1NP, par1T := parRun(1)
		parNKeys, parNNP, parNT := parRun(workers)

		// The two harness-enforced invariants.
		if len(par1Keys) != len(serialKeys) || len(parNKeys) != len(serialKeys) {
			return rep, fmt.Errorf("parallel %s: model sets diverge (serial %d, par1 %d, parN %d)",
				pc.name, len(serialKeys), len(par1Keys), len(parNKeys))
		}
		for k := range serialKeys {
			if !par1Keys[k] || !parNKeys[k] {
				return rep, fmt.Errorf("parallel %s: minimal model missing from parallel enumeration", pc.name)
			}
		}
		if par1NP != parNNP {
			return rep, fmt.Errorf("parallel %s: NP-call count depends on worker count (par1 %d, par%d %d)",
				pc.name, par1NP, workers, parNNP)
		}

		rep.Parallel = append(rep.Parallel, ParallelCase{
			Name:     pc.name,
			Atoms:    d.N(),
			Models:   len(serialKeys),
			SerialMS: float64(serialT.Microseconds()) / 1e3,
			Par1MS:   float64(par1T.Microseconds()) / 1e3,
			ParNMS:   float64(parNT.Microseconds()) / 1e3,
			SerialNP: serialNP,
			ParNP:    par1NP,
		})
		fmt.Fprintf(w, "  %-14s %6d %8d %10s %10s %10s %10d %8d\n",
			pc.name, d.N(), len(serialKeys),
			fmtDuration(serialT), fmtDuration(par1T), fmtDuration(parNT), serialNP, par1NP)
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "  solver pool (same workload, pooling off vs on):\n")
	fmt.Fprintf(w, "  %-14s %10s %10s %10s\n", "instance", "NP-calls", "fresh", "pooled")
	for _, pc := range parallelDBs(scale) {
		d := pc.db
		runOnce := func(pooled bool) (int64, time.Duration) {
			o := oracle.NewNP()
			o.SetPooling(pooled)
			e := models.NewEngine(d, o)
			start := time.Now()
			e.MinimalModels(0, func(logic.Interp) bool { return true })
			return o.Counters().NPCalls, time.Since(start)
		}
		calls, freshT := runOnce(false)
		calls2, pooledT := runOnce(true)
		if calls != calls2 {
			return rep, fmt.Errorf("pool %s: pooling changed the NP-call count (%d vs %d)", pc.name, calls, calls2)
		}
		rep.Pool = append(rep.Pool, PoolCase{
			Name:     pc.name,
			NPCalls:  calls,
			FreshMS:  float64(freshT.Microseconds()) / 1e3,
			PooledMS: float64(pooledT.Microseconds()) / 1e3,
		})
		fmt.Fprintf(w, "  %-14s %10d %10s %10s\n", pc.name, calls, fmtDuration(freshT), fmtDuration(pooledT))
	}

	if err := runOneShotSweep(scale, workers, w, rep); err != nil {
		return rep, err
	}
	if err := runSessionSweep(scale, w, rep); err != nil {
		return rep, err
	}
	if err := runBatchSweep(scale, w, rep); err != nil {
		return rep, err
	}
	if err := runStreamSweep(scale, w, rep); err != nil {
		return rep, err
	}
	if err := runStoreSweep(scale, w, rep); err != nil {
		return rep, err
	}
	if err := runClusterSweep(scale, w, rep); err != nil {
		return rep, err
	}
	if err := runPlannerSweep(scale, w, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// oneShotDBs is the instance set of the one-shot-Sat sweep — slightly
// smaller than parallelDBs because the workload multiplies
// each instance by a per-atom literal-inference pass.
func oneShotDBs(scale Scale) []struct {
	name string
	db   *db.DB
} {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{18, 22}
	cyc := 6
	if scale == Full {
		sizes = []int{26, 32}
		cyc = 8
	}
	var out []struct {
		name string
		db   *db.DB
	}
	for _, n := range sizes {
		out = append(out, struct {
			name string
			db   *db.DB
		}{fmt.Sprintf("rand-pos-n%d", n), gen.Random(rng, gen.Positive(n, 3*n/2))})
	}
	out = append(out, struct {
		name string
		db   *db.DB
	}{fmt.Sprintf("col-cyc%d", cyc), gen.ColoringDB(gen.Cycle(cyc), 3)})
	return out
}

// runOneShotWorkload runs the pure one-shot-Sat workload — HasModel,
// literal inference for every atom, one formula entailment, serial
// minimal-model enumeration — on a fresh oracle and returns its
// counters and wall-clock.
func runOneShotWorkload(d *db.DB, part models.Partition) (oracle.Counters, time.Duration) {
	o := oracle.NewNP()
	e := models.NewEngine(d, o)
	start := time.Now()
	e.HasModel()
	for v := 0; v < d.N(); v++ {
		e.AtomFalseInAllMinimal(logic.Atom(v), part)
	}
	e.MMEntails(logic.Or(logic.AtomF(0), logic.AtomF(1), logic.AtomF(2)), part)
	e.MinimalModelsPZ(part, 0, func(logic.Interp) bool { return true })
	return o.Counters(), time.Since(start)
}

// signatureSet enumerates MM(DB;P;Z) with the worker-pool enumerator
// and returns the (P,Q)-signature set plus the NP-call total.
// Signatures (not full models) are collected because parallel
// representatives may differ on Z atoms.
func signatureSet(d *db.DB, part models.Partition, workers int) (map[string]bool, int64) {
	o := oracle.NewNP()
	e := models.NewEngine(d, o)
	pq := part.P.Clone()
	pq.UnionWith(part.Q)
	keys := map[string]bool{}
	e.MinimalModelsPZPar(part, 0, func(m logic.Interp) bool {
		keys[m.True.Clone().IntersectWith(pq).Key()] = true
		return true
	}, models.ParOptions{Workers: workers})
	return keys, o.Counters().NPCalls
}

// runOneShotSweep is the one-shot-Sat section of RunParallel: for each
// instance family it runs the GCWA workload (full minimisation) and an
// ECWA workload (a ⟨P;Q;Z⟩ partition with all three parts non-empty),
// then checks the worker-pool enumeration's invariance in the worker
// count.
func runOneShotSweep(scale Scale, workers int, w io.Writer, rep *ParallelReport) error {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  one-shot Sat workload (serial, then worker pool at 1 and %d workers):\n", workers)
	fmt.Fprintf(w, "  %-14s %-5s %9s %10s %9s %9s\n",
		"instance", "sem", "NP-calls", "time", "confl", "NP-par")

	for _, pc := range oneShotDBs(scale) {
		d := pc.db
		n := d.N()
		for _, sem := range []struct {
			name string
			part models.Partition
		}{
			{"GCWA", models.FullMin(n)},
			{"ECWA", models.NewPartition(n, atomRange(0, 2*n/3), atomRange(5*n/6, n))},
		} {
			c, elapsed := runOneShotWorkload(d, sem.part)
			sig1, np1 := signatureSet(d, sem.part, 1)
			sigN, npN := signatureSet(d, sem.part, workers)
			if np1 != npN {
				return fmt.Errorf("one-shot %s/%s: parallel NP total depends on workers (par1 %d, par%d %d)",
					pc.name, sem.name, np1, workers, npN)
			}
			if len(sig1) != len(sigN) {
				return fmt.Errorf("one-shot %s/%s: parallel signature sets diverge", pc.name, sem.name)
			}
			for k := range sig1 {
				if !sigN[k] {
					return fmt.Errorf("one-shot %s/%s: signature missing at %d workers", pc.name, sem.name, workers)
				}
			}

			rep.OneShot = append(rep.OneShot, OneShotCase{
				Name:      pc.name,
				Semantics: sem.name,
				Atoms:     n,
				NPCalls:   c.NPCalls,
				MS:        float64(elapsed.Microseconds()) / 1e3,
				Confl:     c.SATConfl,
				ParNP:     np1,
			})
			fmt.Fprintf(w, "  %-14s %-5s %9d %10s %9d %9d\n",
				pc.name, sem.name, c.NPCalls, fmtDuration(elapsed), c.SATConfl, np1)
		}
	}
	return nil
}

// atomRange returns the atoms [lo, hi).
func atomRange(lo, hi int) []logic.Atom {
	var out []logic.Atom
	for a := lo; a < hi; a++ {
		out = append(out, logic.Atom(a))
	}
	return out
}
