package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

// knownReasons is the closed set of ErrorResponse.Error values a
// single query endpoint may answer with.
var knownReasons = map[string]bool{
	ReasonBadRequest: true, ReasonUnknownSemantics: true,
	ReasonUnsupported: true, ReasonNotStratifiable: true,
	ShedQueueFull: true, ShedQueueWait: true, ShedClientGone: true,
	ShedDraining: true, ShedBreakerOpen: true, ShedCost: true,
}

// FuzzServeQuery posts arbitrary bodies to a query endpoint of a
// planner-enabled server. The server must never panic; a rejection
// must carry a typed reason; a complete verdict must equal a fresh
// core call, and so must the memo's answer to the same body, asked
// until the memo has it.
func FuzzServeQuery(f *testing.F) {
	for _, seed := range []struct {
		ep   uint8
		body string
	}{
		{0, `{"semantics":"GCWA","db":"a | b. b | c.","literal":"-a"}`},
		{0, `{"semantics":"DSM","db":"a :- not b. c | d.","literal":"-b","limits":{"conflicts":50}}`},
		{0, `{"semantics":"CWA","db":"a | b.","literal":"~a","limits":{"np_calls":1}}`},
		{1, `{"semantics":"ECWA","db":"a | b. c :- a.","formula":"a -> c"}`},
		{1, `{"semantics":"PDSM","db":"a | b.","formula":"a & b","limits":{"deadline_ms":-5}}`},
		{2, `{"semantics":"PERF","db":"a :- not b. :- a."}`},
		{2, `{"semantics":"DDR","db":"a :- not b."}`},
		{0, `{"semantics":"NOPE","db":"a.","literal":"a"}`},
		{0, `{"semantics":"GCWA","db":"a |","literal":"a"}`},
		{2, `{"semantics":"GCWA","db":""}`},
		{0, `not json`},
	} {
		f.Add(seed.ep, []byte(seed.body))
	}
	kinds := []string{"literal", "formula", "model"}
	paths := map[string]string{"literal": "/v1/infer/literal", "formula": "/v1/infer/formula", "model": "/v1/model"}

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		kind := kinds[int(ep)%len(kinds)]
		srv := New(Config{Planner: true, Ceilings: budget.Limits{Conflicts: 5000, NPCalls: 500, Deadline: 2 * time.Second}})
		var first *QueryResponse
		for round := 0; round < 3; round++ {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, paths[kind], bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !knownReasons[er.Error] {
					t.Fatalf("status %d with an untyped body %q", rec.Code, rec.Body.Bytes())
				}
				if first != nil {
					t.Fatalf("a repeat of an accepted body was rejected: %q", rec.Body.Bytes())
				}
				return
			}
			var qr QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
				t.Fatalf("200 with an unparseable body %q", rec.Body.Bytes())
			}
			if qr.Incomplete {
				if !KnownCauseCodes[qr.CauseCode] {
					t.Fatalf("incomplete with cause %q outside the taxonomy", qr.CauseCode)
				}
				if qr.Path == "memo" {
					t.Fatal("the memo answered incomplete")
				}
				return
			}
			if first == nil {
				first = &qr
				want, ok := freshVerdict(t, kind, body)
				if ok && qr.Holds != want {
					t.Fatalf("served %v (path %q), fresh core call %v, body %q", qr.Holds, qr.Path, want, body)
				}
			}
			if qr.Holds != first.Holds {
				t.Fatalf("round %d (path %q) answered %v, round 0 %v", round, qr.Path, qr.Holds, first.Holds)
			}
			if round == 2 && qr.Path != "memo" {
				t.Fatalf("third ask of a completed query took path %q, want memo", qr.Path)
			}
		}
	})
}

// freshVerdict answers the body's query with a plain library call
// under a generous budget; ok is false when that call does not
// complete.
func freshVerdict(t *testing.T, kind string, body []byte) (holds, ok bool) {
	var req QueryRequest
	// Decode as the server does: the first JSON value, trailing bytes
	// ignored.
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("an accepted body does not decode: %v", err)
	}
	d, err := db.Parse(req.DB)
	if err != nil {
		t.Fatalf("an accepted database does not parse: %v", err)
	}
	o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{Deadline: 10 * time.Second}))
	sem, found := core.New(req.Semantics, core.Options{Oracle: o})
	if !found {
		t.Fatalf("an accepted semantics %q is not registered", req.Semantics)
	}
	switch kind {
	case "literal":
		lit, perr := parseLiteral(req.Literal, d.Voc)
		if perr != nil {
			t.Fatalf("an accepted literal does not parse: %v", perr)
		}
		holds, err = sem.InferLiteral(d, lit)
	case "formula":
		f, perr := logic.ParseFormula(req.Formula, d.Voc)
		if perr != nil {
			t.Fatalf("an accepted formula does not parse: %v", perr)
		}
		holds, err = sem.InferFormula(d, f)
	default:
		holds, err = sem.HasModel(d)
	}
	v, semErr := core.VerdictOf(holds, err)
	return v.Holds, semErr == nil && !v.Incomplete
}
