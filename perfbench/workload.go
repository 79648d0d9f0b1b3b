package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/serve"
)

// input is one distinct request the client can send. The program sees
// only endpoint and body; sem, kind and atoms label it in reports, and
// verification reads the database and query back out of the body.
type input struct {
	endpoint string
	body     []byte

	sem   string // "" for streams
	kind  string // "literal" | "formula" | "model" | "stream"
	atoms int
}

// request decodes the body. Stream bodies decode too: their "db" is the
// only field set.
func (in *input) request() serve.QueryRequest {
	var q serve.QueryRequest
	if err := json.Unmarshal(in.body, &q); err != nil {
		panic(err) // every body is marshalled by this package
	}
	return q
}

// inputs is a workload's generated request set: distinct inputs plus
// the order in which the warm-up pass and the timed phase send them.
// Timed holds more indices than a run is expected to consume; the
// phase ends on the clock, not on the list.
type inputs struct {
	distinct []input
	warm     []int
	timed    []int
	shape    map[string]any // instance-shape parameters for the cohort header
}

// Database classes drawn by the query workloads: the four gen regimes
// plus stratified databases, so that ICWA applies.
const (
	clsPositive = iota
	clsIntegrity
	clsNormalNoIC
	clsNormal
	clsStratified
	numClasses
)

var classNames = [numClasses]string{"positive", "integrity", "normal_noic", "normal", "stratified"}

// classOK reports whether a semantics is defined on every database of a
// class. ICWA needs a stratifiable database, which only the positive and
// stratified generators guarantee.
func classOK(info core.Info, cls int) bool {
	switch cls {
	case clsPositive:
		return true
	case clsIntegrity:
		return !info.NoIC && !info.Stratified
	case clsNormalNoIC:
		return !info.NoNegation && !info.Stratified
	case clsNormal:
		return !info.NoNegation && !info.NoIC && !info.Stratified
	default: // stratified: negation in bodies, no integrity clauses
		return !info.NoNegation
	}
}

// randomDB draws one database of a class and returns it after a round
// trip through its text, so query atoms come from the vocabulary the
// server will parse (an atom that appears in no clause is absent there).
func randomDB(r *rand.Rand, cls, atoms, clauses int) *db.DB {
	for {
		var g *db.DB
		switch cls {
		case clsPositive:
			g = gen.Random(r, gen.Positive(atoms, clauses))
		case clsIntegrity:
			g = gen.Random(r, gen.WithIntegrity(atoms, clauses))
		case clsNormalNoIC:
			g = gen.Random(r, gen.NormalNoIC(atoms, clauses))
		case clsNormal:
			g = gen.Random(r, gen.Normal(atoms, clauses))
		default:
			g = gen.RandomStratified(r, atoms, clauses, 2+r.Intn(2))
		}
		d, err := db.Parse(g.String())
		if err == nil && d.N() > 0 {
			return d
		}
	}
}

// queryInput phrases one query of the 60/20/20 literal/formula/model
// mix against d under sem.
func queryInput(r *rand.Rand, sem string, d *db.DB) input {
	return queryOfKind(r, sem, d, r.Intn(10))
}

// queryOfKind phrases a query of the kind slot k in 0..9: slots 0–5 are
// literals, 6–7 formulas, 8–9 model existence.
func queryOfKind(r *rand.Rand, sem string, d *db.DB, k int) input {
	text := d.String()
	atom := func() string { return d.Voc.Name(logic.Atom(r.Intn(d.N()))) }
	in := input{sem: sem, atoms: d.N()}
	q := serve.QueryRequest{Semantics: sem, DB: text}
	switch {
	case k < 6:
		in.kind, in.endpoint = "literal", "/v1/infer/literal"
		q.Literal = atom()
		if r.Intn(2) == 0 {
			q.Literal = "-" + q.Literal
		}
	case k < 8:
		in.kind, in.endpoint = "formula", "/v1/infer/formula"
		a, b := atom(), atom()
		switch r.Intn(3) {
		case 0:
			q.Formula = "~" + a + " | " + b
		case 1:
			q.Formula = a + " | " + b
		default:
			q.Formula = "~" + a + " & ~" + b
		}
	default:
		in.kind, in.endpoint = "model", "/v1/model"
	}
	in.body = mustJSON(q)
	return in
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings always marshal
	}
	return b
}

// semantics returns every registered semantics, sorted, with its
// metadata.
func semantics() []core.Info {
	var out []core.Info
	for _, name := range core.Names() {
		info, ok := core.InfoFor(name)
		if !ok {
			info = core.Info{Name: name}
		}
		out = append(out, info)
	}
	return out
}

// Shape of cold-mixed: a fresh database per request, 5–9 atoms (the
// planner's brute limit is 8) and 3–6 clauses. The brute arm of a PWS/PMS
// portfolio race grows about 3.5× per clause and cannot be cancelled; at
// 8 clauses single requests took up to 1.5 s, a tenth of a run, so the
// range stops at 6, where the slowest take tens of milliseconds.
const (
	coldMinAtoms, coldMaxAtoms     = 5, 9
	coldMinClauses, coldMaxClauses = 3, 6
	coldWarm                       = 8000 // warm-up requests: enough to fill the artifact cache
	coldWarmSeed                   = -1   // the warm-up stream is the same in every run
	coldRateCap                    = 8000 // requests generated per timed second
)

// coldQuery draws one cold-mixed request: a semantics uniformly from
// the registry, then a database class it is defined on.
func coldQuery(r *rand.Rand, sems []core.Info) input {
	info := sems[r.Intn(len(sems))]
	var classes []int
	for c := 0; c < numClasses; c++ {
		if classOK(info, c) {
			classes = append(classes, c)
		}
	}
	cls := classes[r.Intn(len(classes))]
	n := coldMinAtoms + r.Intn(coldMaxAtoms-coldMinAtoms+1)
	m := coldMinClauses + r.Intn(coldMaxClauses-coldMinClauses+1)
	return queryInput(r, info.Name, randomDB(r, cls, n, m))
}

func coldMixed(seed int64, seconds int) inputs {
	sems := semantics()
	var in inputs
	wr := rand.New(rand.NewSource(coldWarmSeed))
	for i := 0; i < coldWarm; i++ {
		in.warm = append(in.warm, len(in.distinct))
		in.distinct = append(in.distinct, coldQuery(wr, sems))
	}
	tr := rand.New(rand.NewSource(seed))
	for i := 0; i < coldRateCap*seconds; i++ {
		in.timed = append(in.timed, len(in.distinct))
		in.distinct = append(in.distinct, coldQuery(tr, sems))
	}
	in.shape = map[string]any{
		"atoms": fmt.Sprintf("%d-%d", coldMinAtoms, coldMaxAtoms), "clauses": fmt.Sprintf("%d-%d", coldMinClauses, coldMaxClauses),
		"classes": classNames, "mix": "60/20/20 literal/formula/model", "warmup_requests": coldWarm, "warmup_seed": coldWarmSeed,
		"db_per_request": "fresh",
	}
	return in
}

// Shape of hot-routed: a fixed pool of databases, each with a fixed set
// of queries, sent repeatedly in a seeded uniform order. The pool comes
// from hotPoolSeed, so every run serves the same working set and the
// run's seed draws the order. (A PDSM query on a 9-atom database costs
// 2–70 ms depending on its clauses, so a pool drawn per seed moved
// throughput and p99 by tens of percent between seeds.)
const (
	hotPoolSeed  = 20260101
	hotDBs       = 48
	hotPerDB     = 40
	hotMinAtoms  = 5
	hotAtomRange = 5 // atoms 5..9, by position in the pool
	hotRateCap   = 8000
)

func hotRouted(seed int64, seconds int) inputs {
	sems := semantics()
	pool := rand.New(rand.NewSource(hotPoolSeed))
	var in inputs
	for i := 0; i < hotDBs; i++ {
		cls := i % numClasses
		n := hotMinAtoms + (i/numClasses)%hotAtomRange
		d := randomDB(pool, cls, n, 3+n/2+pool.Intn(n/2+1))
		var fit []string
		for _, info := range sems {
			if classOK(info, cls) {
				fit = append(fit, info.Name)
			}
		}
		// Semantics go round the fitting ones and kinds round the
		// 60/20/20 slots, so every database carries the same share of
		// each.
		for q := 0; q < hotPerDB; q++ {
			in.warm = append(in.warm, len(in.distinct))
			in.distinct = append(in.distinct, queryOfKind(pool, fit[q%len(fit)], d, q%10))
		}
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < hotRateCap*seconds; i++ {
		in.timed = append(in.timed, r.Intn(len(in.distinct)))
	}
	in.shape = map[string]any{
		"dbs": hotDBs, "pool_seed": hotPoolSeed, "queries_per_db": hotPerDB, "atoms": fmt.Sprintf("%d-%d", hotMinAtoms, hotMinAtoms+hotAtomRange-1),
		"clauses": "3+n/2 .. 3+n", "classes": classNames, "mix": "60/20/20 literal/formula/model",
		"semantics": "round-robin over those defined on the DB's class", "kinds": "round-robin over the 60/20/20 slots", "order": "uniform over the distinct queries",
		"warmup":  "one pass over every distinct query",
		"workers": 2,
	}
	return in
}

// Shape of stream-minimal: the 3-colouring instances of small cycles and
// random positive databases rich in disjunctive facts, each enumerated as
// a whole through /v1/models/stream. As in hot-routed, the pool is fixed
// (streamPoolSeed) and the run's seed draws the order: the cost of a
// random positive database varies a hundredfold with its clauses.
var streamCycles = []int{4, 5, 6, 7}

const (
	streamColorCopies = 3 // instances of each cycle length
	streamColors      = 3
	streamPositives   = 60
	streamPosAtoms    = 16
	streamAtomRange   = 5 // positive DBs have 16..20 atoms
	streamFactProb    = 0.8
	streamPoolSeed    = 20260102
	streamWarmPasses  = 4 // passes over the pool in the warm-up, so set-up runs long enough to time
	streamRateCap     = 1000
)

func streamMinimal(seed int64, seconds int) inputs {
	pool := rand.New(rand.NewSource(streamPoolSeed))
	var in inputs
	add := func(d *db.DB) {
		text := d.String()
		in.distinct = append(in.distinct, input{
			endpoint: "/v1/models/stream", kind: "stream", atoms: d.N(),
			body: mustJSON(serve.StreamRequest{DB: text, Kind: "minimal", Parallel: false}),
		})
	}
	for _, n := range streamCycles {
		for k := 0; k < streamColorCopies; k++ {
			add(gen.ColoringDB(gen.Cycle(n), streamColors))
		}
	}
	for i := 0; i < streamPositives; i++ {
		n := streamPosAtoms + i%streamAtomRange
		cfg := gen.Config{Atoms: n, Clauses: n / 2, MaxHead: 3, MaxBody: 2, FactProb: streamFactProb}
		for {
			d, err := db.Parse(gen.Random(pool, cfg).String())
			if err == nil && d.N() > 0 {
				add(d)
				break
			}
		}
	}
	for p := 0; p < streamWarmPasses; p++ {
		for i := range in.distinct {
			in.warm = append(in.warm, i)
		}
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < streamRateCap*seconds; i++ {
		in.timed = append(in.timed, r.Intn(len(in.distinct)))
	}
	in.shape = map[string]any{
		"cycles": streamCycles, "copies_per_cycle": streamColorCopies, "colors": streamColors,
		"pool_seed": streamPoolSeed, "positive_dbs": streamPositives, "positive_atoms": fmt.Sprintf("%d-%d", streamPosAtoms, streamPosAtoms+streamAtomRange-1),
		"positive_clauses": "atoms/2", "positive_fact_prob": streamFactProb,
		"kind": "minimal", "parallel": false, "order": "uniform over the pool", "warmup": fmt.Sprintf("%d passes over the pool", streamWarmPasses),
	}
	return in
}

// workloads maps each workload name to its generator.
var workloads = map[string]func(seed int64, seconds int) inputs{
	"cold-mixed":     coldMixed,
	"hot-routed":     hotRouted,
	"stream-minimal": streamMinimal,
}
