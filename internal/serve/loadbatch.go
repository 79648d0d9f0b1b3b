package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

// Batch replay and stream verification: the client-side halves of the
// /v1/batch and /v1/models/stream contracts. RunBatchReplay regroups a
// seeded hot-DB workload into batches and requires every per-query
// outcome to be typed and (under Verify) verdict-identical to a direct
// library call; RunStreamCheck consumes whole NDJSON streams and
// requires the streamed model sets to be set-identical to buffered
// library enumeration with a typed terminal record. Both feed the
// smoke harness, which hard-fails on a single untyped or divergent
// outcome.

// BatchReport is the outcome breakdown of one batch replay.
type BatchReport struct {
	Batches    int            `json:"batches"`
	Queries    int            `json:"queries"`
	Completed  int            `json:"completed"`
	Incomplete int            `json:"incomplete"`
	Errored    int            `json:"errored"` // typed per-query error entries
	Untyped    int            `json:"untyped"`
	Divergent  int            `json:"divergent"`
	CompileMS  float64        `json:"compile_ms_total"`
	ByCause    map[string]int `json:"by_cause"`
	Notes      []string       `json:"notes,omitempty"`
}

// Clean reports whether the replay satisfied the batch contract.
func (r BatchReport) Clean() bool { return r.Untyped == 0 && r.Divergent == 0 }

func (r BatchReport) String() string {
	return fmt.Sprintf("batches=%d queries=%d completed=%d incomplete=%d errored=%d untyped=%d divergent=%d",
		r.Batches, r.Queries, r.Completed, r.Incomplete, r.Errored, r.Untyped, r.Divergent)
}

// knownBatchErrorReasons is the closed set a BatchItem.Error may carry.
var knownBatchErrorReasons = map[string]bool{
	ReasonBadRequest:       true,
	ReasonUnknownSemantics: true,
	ReasonUnsupported:      true,
	ReasonNotStratifiable:  true,
	ShedBreakerOpen:        true,
}

// RunBatchReplay generates the same seeded workload RunLoad would,
// groups it by database text, and replays each group through /v1/batch
// in chunks of batchSize. Requires HotDBs-style repetition to be
// meaningful — a zero cfg.HotDBs is bumped to 4.
func RunBatchReplay(cfg LoadConfig, batchSize int) BatchReport {
	if cfg.MaxAtoms < 2 {
		cfg.MaxAtoms = 5
	}
	if cfg.HotDBs <= 0 {
		cfg.HotDBs = 4
	}
	if batchSize <= 0 {
		batchSize = 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	jobs := genJobs(cfg)
	client := &http.Client{Timeout: cfg.Timeout}
	rep := BatchReport{ByCause: map[string]int{}}
	note := func(format string, args ...any) {
		if len(rep.Notes) < 5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(format, args...))
		}
	}

	// Group by database text in first-appearance order, then chunk.
	order := []string{}
	groups := map[string][]loadJob{}
	for _, j := range jobs {
		if _, seen := groups[j.dbText]; !seen {
			order = append(order, j.dbText)
		}
		groups[j.dbText] = append(groups[j.dbText], j)
	}
	for _, dbText := range order {
		g := groups[dbText]
		for lo := 0; lo < len(g); lo += batchSize {
			hi := lo + batchSize
			if hi > len(g) {
				hi = len(g)
			}
			chunk := g[lo:hi]
			breq := BatchRequest{DB: dbText, Limits: cfg.Limits}
			for _, j := range chunk {
				breq.Queries = append(breq.Queries, BatchQuery{
					Kind: j.kind, Semantics: j.sem, Literal: j.literal, Formula: j.formula,
				})
			}
			rep.Batches++
			rep.Queries += len(chunk)
			body, _ := json.Marshal(breq)
			resp, err := client.Post(cfg.BaseURL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				rep.Untyped += len(chunk)
				note("batch transport error: %v", err)
				continue
			}
			var br BatchResponse
			decodeErr := json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decodeErr != nil {
				rep.Untyped += len(chunk)
				note("batch status %d decode err %v", resp.StatusCode, decodeErr)
				continue
			}
			rep.CompileMS += br.CompileMS
			if len(br.Results) != len(chunk) {
				rep.Untyped += len(chunk)
				note("batch returned %d results for %d queries", len(br.Results), len(chunk))
				continue
			}
			for i, item := range br.Results {
				job := chunk[i]
				switch {
				case item.Error != nil:
					if !knownBatchErrorReasons[item.Error.Error] {
						rep.Untyped++
						note("untyped batch error %q for %s %s", item.Error.Error, job.sem, job.kind)
						continue
					}
					rep.Errored++
				case item.Response == nil:
					rep.Untyped++
					note("batch item %d has neither response nor error", i)
				case item.Response.Incomplete:
					if !KnownCauseCodes[item.Response.CauseCode] {
						rep.Untyped++
						note("untyped batch cause %q", item.Response.CauseCode)
						continue
					}
					rep.Incomplete++
					rep.ByCause[item.Response.CauseCode]++
				default:
					rep.Completed++
					if cfg.Verify {
						want, refErr := referenceVerdict(job)
						if refErr != nil {
							rep.Untyped++
							note("reference error for %s %s: %v", job.sem, job.kind, refErr)
						} else if want != item.Response.Holds {
							rep.Divergent++
							note("batch %s %s on %q: served=%v direct=%v",
								job.sem, job.kind, job.literal+job.formula, item.Response.Holds, want)
						}
					}
				}
			}
		}
	}
	return rep
}

// StreamReport is the outcome breakdown of one stream verification run.
type StreamReport struct {
	Streams   int            `json:"streams"`
	Models    int            `json:"models"`
	ByCause   map[string]int `json:"by_cause"`
	Untyped   int            `json:"untyped"`
	Divergent int            `json:"divergent"`
	Notes     []string       `json:"notes,omitempty"`
}

// Clean reports whether every stream terminated typed with the right
// model set.
func (r StreamReport) Clean() bool { return r.Untyped == 0 && r.Divergent == 0 }

func (r StreamReport) String() string {
	return fmt.Sprintf("streams=%d models=%d untyped=%d divergent=%d causes=%v",
		r.Streams, r.Models, r.Untyped, r.Divergent, r.ByCause)
}

// RunStreamCheck opens n streams over seeded random databases —
// alternating all-models/minimal and serial/parallel enumerators — and
// verifies each streamed model set against a direct buffered library
// enumeration of the same database. Budget-interrupted streams count
// as typed outcomes but skip the set comparison (a prefix proves
// nothing); complete streams must match exactly.
func RunStreamCheck(cfg LoadConfig, n int) StreamReport {
	if cfg.MaxAtoms < 2 {
		cfg.MaxAtoms = 5
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	client := &http.Client{Timeout: cfg.Timeout}
	rep := StreamReport{ByCause: map[string]int{}}
	note := func(format string, args ...any) {
		if len(rep.Notes) < 5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(format, args...))
		}
	}

	for i := 0; i < n; i++ {
		atoms := 2 + rng.Intn(cfg.MaxAtoms-1)
		var d *db.DB
		for {
			g := gen.Random(rng, gen.Positive(atoms, 1+rng.Intn(2*atoms)))
			if rt, err := db.Parse(g.String()); err == nil && rt.N() > 0 {
				d = rt
				break
			}
		}
		kind := "models"
		if i%2 == 1 {
			kind = "minimal"
		}
		parallel := i%4 >= 2
		rep.Streams++

		body, _ := json.Marshal(StreamRequest{DB: d.String(), Kind: kind, Parallel: parallel, Limits: cfg.Limits})
		resp, err := client.Post(cfg.BaseURL+"/v1/models/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			rep.Untyped++
			note("stream transport error: %v", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			rep.Untyped++
			note("stream status %d", resp.StatusCode)
			resp.Body.Close()
			continue
		}
		var rows []string
		var done StreamDoneRow
		sawDone, lineErr := false, false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var line StreamLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				lineErr = true
				note("stream line does not parse: %v", err)
				break
			}
			if line.Done {
				sawDone = true
				_ = json.Unmarshal(sc.Bytes(), &done)
				continue
			}
			sorted := append([]string(nil), line.Model...)
			sort.Strings(sorted)
			rows = append(rows, strings.Join(sorted, ","))
		}
		resp.Body.Close()
		if lineErr || !sawDone || !KnownStreamCauses[done.Cause] {
			rep.Untyped++
			if !lineErr {
				note("stream ended sawDone=%v cause=%q", sawDone, done.Cause)
			}
			continue
		}
		rep.Models += done.Count
		rep.ByCause[done.Cause]++
		if done.Count != len(rows) {
			rep.Divergent++
			note("stream counted %d but emitted %d rows", done.Count, len(rows))
			continue
		}
		if done.Cause != StreamCauseComplete {
			continue // typed interruption: a prefix can't be set-compared
		}
		want := bufferedModelKeys(d, kind)
		sort.Strings(rows)
		sort.Strings(want)
		if strings.Join(rows, ";") != strings.Join(want, ";") {
			rep.Divergent++
			note("stream %s parallel=%v: %d streamed models != %d library models", kind, parallel, len(rows), len(want))
		}
	}
	return rep
}

// bufferedModelKeys enumerates d's (minimal) models with a direct
// library call and returns sorted-atom keys.
func bufferedModelKeys(d *db.DB, kind string) []string {
	eng := models.NewEngine(d, oracle.NewNP())
	var keys []string
	collect := func(m logic.Interp) bool {
		var atoms []string
		for v := 0; v < d.N(); v++ {
			if m.Holds(logic.Atom(v)) {
				atoms = append(atoms, d.Voc.Name(logic.Atom(v)))
			}
		}
		sort.Strings(atoms)
		keys = append(keys, strings.Join(atoms, ","))
		return true
	}
	it := eng.IterateModels(0)
	if kind == "minimal" {
		it = eng.IterateMinimalModels(0)
	}
	models.Drain(it, collect)
	return keys
}
