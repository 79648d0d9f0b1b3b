package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"time"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

// reference is the untimed direct-library answer for one distinct
// input, computed on the same text the server parsed. Its timings and
// counters double as the replay of the fresh procedure (queries) and of
// the model iterator (streams) in the traced run.
type reference struct {
	err      error
	holds    bool
	dur      time.Duration
	counters oracle.Counters

	digest    uint64
	count     int
	firstNext time.Duration // first Next call of the iterator
	restNext  time.Duration // all later Next calls, the terminal one included
}

// queryReference answers a query with a fresh engine and a plain NP
// oracle: no sessions, no planner, no budget.
func queryReference(in *input) reference {
	q := in.request()
	d, err := db.Parse(q.DB)
	if err != nil {
		return reference{err: fmt.Errorf("reference parse: %w", err)}
	}
	o := oracle.NewNP()
	sem, ok := core.New(in.sem, core.Options{Oracle: o})
	if !ok {
		return reference{err: fmt.Errorf("semantics %q not registered", in.sem)}
	}
	var ref reference
	start := time.Now()
	switch in.kind {
	case "literal":
		lit, perr := parseLiteral(q.Literal, d.Voc)
		if perr != nil {
			return reference{err: perr}
		}
		ref.holds, ref.err = sem.InferLiteral(d, lit)
	case "formula":
		f, perr := logic.ParseFormula(q.Formula, d.Voc)
		if perr != nil {
			return reference{err: perr}
		}
		ref.holds, ref.err = sem.InferFormula(d, f)
	default:
		ref.holds, ref.err = sem.HasModel(d)
	}
	ref.dur = time.Since(start)
	ref.counters = o.Counters()
	return ref
}

// parseLiteral reads the two literal forms the workloads send: "x" and
// "-x".
func parseLiteral(s string, voc *logic.Vocabulary) (logic.Lit, error) {
	neg := strings.HasPrefix(s, "-")
	a, ok := voc.Lookup(strings.TrimPrefix(s, "-"))
	if !ok {
		return 0, fmt.Errorf("atom %q not in vocabulary", s)
	}
	return logic.MkLit(a, !neg), nil
}

// streamReference enumerates the minimal models with models.Engine's
// pull iterator and digests the set.
func streamReference(in *input) reference {
	d, err := db.Parse(in.request().DB)
	if err != nil {
		return reference{err: fmt.Errorf("reference parse: %w", err)}
	}
	o := oracle.NewNP()
	it := models.NewEngine(d, o).IterateMinimalModels(0)
	defer it.Close()
	var ref reference
	var keys []string
	for calls := 0; ; calls++ {
		t := time.Now()
		m, err := it.Next(context.Background())
		dt := time.Since(t)
		if calls == 0 {
			ref.firstNext = dt
		} else {
			ref.restNext += dt
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return reference{err: fmt.Errorf("reference enumeration: %w", err)}
		}
		var atoms []string
		for v := 0; v < d.N(); v++ {
			if m.Holds(logic.Atom(v)) {
				atoms = append(atoms, d.Voc.Name(logic.Atom(v)))
			}
		}
		keys = append(keys, strings.Join(atoms, ","))
		ref.count++
	}
	ref.dur = ref.firstNext + ref.restNext
	ref.digest = digest(keys)
	ref.counters = o.Counters()
	return ref
}

// digest hashes a model set independently of enumeration order.
func digest(keys []string) uint64 {
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
