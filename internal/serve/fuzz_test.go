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
// single query endpoint may answer with; /v1/batch may also answer
// batch_too_large.
var knownReasons = map[string]bool{
	ReasonBadRequest: true, ReasonUnknownSemantics: true,
	ReasonUnsupported: true, ReasonNotStratifiable: true,
	ShedQueueFull: true, ShedQueueWait: true, ShedClientGone: true,
	ShedDraining: true, ShedBreakerOpen: true, ShedCost: true,
}

// FuzzServeQuery posts arbitrary bodies to one of the admitted
// endpoints of a planner-enabled server. The server must never panic,
// and a rejection must carry a typed reason. On the query endpoints a
// complete verdict must equal a fresh core call, and so must the
// memo's answer to the same body, asked until the memo has it. On
// /v1/batch every item error is typed and every complete item equals a
// fresh core call. On /v1/models/stream every stream ends in a terminal
// row with a typed cause.
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
		{3, `{"semantics":"GCWA","db":"a | b. b | c.","queries":[{"literal":"-a"},{"formula":"a | c"},{"kind":"model"},{"semantics":"DSM","literal":"b"},{"kind":"nope"},{"semantics":"NOPE"}]}`},
		{3, `{"semantics":"PERF","db":"a :- not b. b :- not a.","queries":[{"literal":"a"},{"semantics":"EGCWA","literal":"-b","kind":"literal"}],"limits":{"np_calls":2}}`},
		{3, `{"db":"a.","queries":[]}`},
		{4, `{"db":"a | b. b | c.","kind":"minimal"}`},
		{4, `{"db":"a | b | c. d | e.","parallel":true,"limit":3}`},
		{4, `{"db":"p | q. :- p, q.","kind":"minimal","limits":{"np_calls":1}}`},
		{4, `{"db":"a.","kind":"bogus"}`},
	} {
		f.Add(seed.ep, []byte(seed.body))
	}
	paths := []string{"/v1/infer/literal", "/v1/infer/formula", "/v1/model", "/v1/batch", "/v1/models/stream"}
	kinds := []string{"literal", "formula", "model"}

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := paths[int(ep)%len(paths)]
		srv := New(Config{
			Planner:         true,
			Ceilings:        budget.Limits{Conflicts: 5000, NPCalls: 500, Deadline: 2 * time.Second},
			StreamMaxModels: 64,
		})
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil ||
					!(knownReasons[er.Error] || path == "/v1/batch" && er.Error == ReasonBatchTooLarge) {
					t.Fatalf("status %d with an untyped body %q", rec.Code, rec.Body.Bytes())
				}
			}
			return rec
		}
		switch path {
		case "/v1/batch":
			fuzzBatch(t, post(), body)
		case "/v1/models/stream":
			fuzzStream(t, post())
		default:
			fuzzQuery(t, post, kinds[int(ep)%len(paths)], body)
		}
	})
}

// fuzzQuery checks a query endpoint's answers to one body, asked
// three times: equal to a fresh core call, and the third from the memo.
func fuzzQuery(t *testing.T, post func() *httptest.ResponseRecorder, kind string, body []byte) {
	var req QueryRequest
	var first *QueryResponse
	for round := 0; round < 3; round++ {
		rec := post()
		if rec.Code != http.StatusOK {
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
			decodeAccepted(t, body, &req)
			want, ok := freshVerdict(t, req.Semantics, req.DB, kind, req.Literal, req.Formula)
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
}

// fuzzBatch checks a /v1/batch answer item by item.
func fuzzBatch(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	if rec.Code != http.StatusOK {
		return
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatalf("200 with an unparseable body %q", rec.Body.Bytes())
	}
	var req BatchRequest
	decodeAccepted(t, body, &req)
	if len(br.Results) != len(req.Queries) {
		t.Fatalf("%d results for %d queries", len(br.Results), len(req.Queries))
	}
	for i, item := range br.Results {
		switch {
		case item.Error != nil:
			if !knownReasons[item.Error.Error] {
				t.Fatalf("item %d: untyped error %+v", i, *item.Error)
			}
		case item.Response == nil:
			t.Fatalf("item %d carries neither a response nor an error", i)
		case item.Response.Incomplete:
			if !KnownCauseCodes[item.Response.CauseCode] {
				t.Fatalf("item %d: incomplete with cause %q outside the taxonomy", i, item.Response.CauseCode)
			}
		default:
			q, resp := req.Queries[i], item.Response
			want, ok := freshVerdict(t, resp.Semantics, req.DB, resp.Kind, q.Literal, q.Formula)
			if ok && resp.Holds != want {
				t.Fatalf("item %d served %v (path %q), fresh core call %v, body %q", i, resp.Holds, resp.Path, want, body)
			}
		}
	}
}

// fuzzStream checks that a 200 stream is NDJSON rows closed by exactly
// one terminal row with a typed cause and the row count.
func fuzzStream(t *testing.T, rec *httptest.ResponseRecorder) {
	if rec.Code != http.StatusOK {
		return
	}
	lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
	for i, raw := range lines {
		var line StreamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("stream line %d does not parse: %q", i, raw)
		}
		if last := i == len(lines)-1; line.Done != last {
			t.Fatalf("stream line %d: done=%v, want done only on the last line", i, line.Done)
		} else if !last && line.Model == nil {
			t.Fatalf("stream line %d is neither a model row nor the terminal row: %q", i, raw)
		} else if last && (!KnownStreamCauses[line.Cause] || line.Count != len(lines)-1) {
			t.Fatalf("terminal row %q after %d models", raw, len(lines)-1)
		}
	}
}

// decodeAccepted decodes an accepted body as the server does: the first
// JSON value, trailing bytes ignored.
func decodeAccepted(t *testing.T, body []byte, v any) {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		t.Fatalf("an accepted body does not decode: %v", err)
	}
}

// freshVerdict answers one query with a plain library call under a
// generous budget; ok is false when that call does not complete.
func freshVerdict(t *testing.T, semName, dbText, kind, literal, formula string) (holds, ok bool) {
	d, err := db.Parse(dbText)
	if err != nil {
		t.Fatalf("an accepted database does not parse: %v", err)
	}
	o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{Deadline: 10 * time.Second}))
	sem, found := core.New(semName, core.Options{Oracle: o})
	if !found {
		t.Fatalf("an accepted semantics %q is not registered", semName)
	}
	switch kind {
	case "literal":
		lit, perr := parseLiteral(literal, d.Voc)
		if perr != nil {
			t.Fatalf("an accepted literal does not parse: %v", perr)
		}
		holds, err = sem.InferLiteral(d, lit)
	case "formula":
		f, perr := logic.ParseFormula(formula, d.Voc)
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
