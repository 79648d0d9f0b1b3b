package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
)

// openStream POSTs a stream request and returns the live response; the
// caller scans its NDJSON body.
func openStream(t *testing.T, ts *httptest.Server, ctx context.Context, req StreamRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/models/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(httpReq)
	if err != nil {
		t.Fatalf("POST /v1/models/stream: %v", err)
	}
	return resp
}

// scanStream reads a whole NDJSON stream: model rows as sorted "a,b"
// keys, plus the terminal record. It fails if the stream ends without
// one or a line fits neither shape.
func scanStream(t *testing.T, resp *http.Response) (rows []string, done StreamDoneRow) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	sawDone := false
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line does not parse: %v\n%s", err, sc.Bytes())
		}
		if line.Done {
			sawDone = true
			if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
				t.Fatalf("terminal line does not parse as StreamDoneRow: %v", err)
			}
			continue
		}
		if line.Model == nil {
			t.Fatalf("stream line is neither a model row nor a terminal record: %s", sc.Bytes())
		}
		sorted := append([]string(nil), line.Model...)
		sort.Strings(sorted)
		rows = append(rows, strings.Join(sorted, ","))
	}
	if !sawDone {
		t.Fatalf("stream ended without a terminal record (read %d rows)", len(rows))
	}
	if !KnownStreamCauses[done.Cause] {
		t.Fatalf("terminal record carries untyped cause %q", done.Cause)
	}
	return rows, done
}

// directModels enumerates the same model set with a plain library call
// — through the same enumerator family the stream would use — and
// returns the sorted-atom keys plus the oracle's NP-call count.
func directModels(t *testing.T, dbText, kind string, parallel bool) ([]string, int64) {
	t.Helper()
	d, err := db.Parse(dbText)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewNP()
	eng := models.NewEngine(d, o)
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
	var it models.ModelIterator
	switch {
	case kind == "minimal" && parallel:
		it = eng.IterateMinimalModelsPar(0, models.ParOptions{})
	case kind == "minimal":
		it = eng.IterateMinimalModels(0)
	case parallel:
		it = eng.IterateModelsPar(0, models.ParOptions{})
	default:
		it = eng.IterateModels(0)
	}
	if _, err := models.Drain(it, collect); err != nil {
		t.Fatal(err)
	}
	return keys, o.Counters().NPCalls
}

// TestStreamMatchesBuffered: the streamed model set (and, for the
// serial enumerators, the exact NP-call count) is identical to a direct
// buffered library enumeration — for both kinds, with and without the
// parallel worker pool, with and without warm sessions.
func TestStreamMatchesBuffered(t *testing.T) {
	dbText := "a | b. b | c. d :- a. e | a :- c."
	for _, sessions := range []bool{false, true} {
		srv := New(Config{Sessions: sessions})
		ts := httptest.NewServer(srv.Handler())
		for _, kind := range []string{"models", "minimal"} {
			for _, parallel := range []bool{false, true} {
				wantRows, wantNP := directModels(t, dbText, kind, parallel)
				sort.Strings(wantRows)
				resp := openStream(t, ts, context.Background(), StreamRequest{DB: dbText, Kind: kind, Parallel: parallel})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s parallel=%v: status %d", kind, parallel, resp.StatusCode)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Fatalf("%s: Content-Type %q", kind, ct)
				}
				rows, done := scanStream(t, resp)
				if done.Cause != StreamCauseComplete {
					t.Fatalf("%s parallel=%v: cause %q, want complete", kind, parallel, done.Cause)
				}
				if done.Count != len(rows) {
					t.Fatalf("%s: terminal count %d, emitted %d rows", kind, done.Count, len(rows))
				}
				sort.Strings(rows)
				if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
					t.Fatalf("%s parallel=%v sessions=%v: streamed %v, library %v",
						kind, parallel, sessions, rows, wantRows)
				}
				// NP totals are deterministic per enumerator family: the
				// streamed run must cost exactly what the buffered library
				// run through the same family costs.
				if done.Counters.NPCalls != wantNP {
					t.Fatalf("%s parallel=%v sessions=%v: stream NP %d, library %d",
						kind, parallel, sessions, done.Counters.NPCalls, wantNP)
				}
			}
		}
		ts.Close()
	}
}

// TestStreamLimitAndCap: a client limit and the server-side model cap
// both terminate the stream with the typed "limit" cause.
func TestStreamLimitAndCap(t *testing.T) {
	dbText := "a | b | c | d."
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := openStream(t, ts, context.Background(), StreamRequest{DB: dbText, Limit: 3})
	rows, done := scanStream(t, resp)
	if done.Cause != StreamCauseLimit || len(rows) != 3 || done.Count != 3 {
		t.Fatalf("client limit: cause %q count %d rows %d", done.Cause, done.Count, len(rows))
	}

	capped := New(Config{StreamMaxModels: 2})
	tsCapped := httptest.NewServer(capped.Handler())
	defer tsCapped.Close()
	resp = openStream(t, tsCapped, context.Background(), StreamRequest{DB: dbText})
	rows, done = scanStream(t, resp)
	if done.Cause != StreamCauseLimit || len(rows) != 2 {
		t.Fatalf("server cap: cause %q rows %d", done.Cause, len(rows))
	}
}

// TestStreamBudgetTrip: an NP-call ceiling interrupts the enumeration
// mid-stream; the terminal record carries the typed budget cause and
// the rows already emitted stand.
func TestStreamBudgetTrip(t *testing.T) {
	srv := New(Config{Ceilings: budget.Limits{NPCalls: 3}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := openStream(t, ts, context.Background(), StreamRequest{DB: "a | b | c | d | e."})
	rows, done := scanStream(t, resp)
	if done.Cause != CauseNPCallBudget {
		t.Fatalf("cause %q, want %q", done.Cause, CauseNPCallBudget)
	}
	if len(rows) == 0 {
		t.Fatalf("budget of 3 NP calls emitted no rows before tripping")
	}
}

// TestStreamDrainMidStream: a server drain cuts a running stream at
// drain-BEGIN: the client still receives a terminal record with the
// typed "canceled" cause, and Drain itself completes clean (a stream
// must never hold the drain open for the full timeout).
func TestStreamDrainMidStream(t *testing.T) {
	// One wide clause over 16 atoms: 2^16-1 models, far more than any
	// test will consume — the stream is effectively unbounded.
	atoms := make([]string, 16)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("x%d", i)
	}
	dbText := strings.Join(atoms, " | ") + "."

	srv := New(Config{DrainTimeout: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := openStream(t, ts, context.Background(), StreamRequest{DB: dbText})
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("stream produced only %d rows before dying", i)
		}
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()

	var done StreamDoneRow
	sawDone := false
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line after drain does not parse: %v\n%s", err, sc.Bytes())
		}
		if line.Done {
			sawDone = true
			if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sawDone {
		t.Fatalf("drained stream ended without a terminal record")
	}
	if done.Cause != CauseCanceled {
		t.Fatalf("drained stream cause %q, want %q", done.Cause, CauseCanceled)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain was held open by the stream: %v", err)
	}
}

// TestStreamClientGone: a client disconnect mid-stream is classified
// client_gone — it bumps the stream_client_gone stat and leaves every
// breaker untouched (a hangup is the client's doing, not evidence of
// server failure).
func TestStreamClientGone(t *testing.T) {
	atoms := make([]string, 16)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("x%d", i)
	}
	dbText := strings.Join(atoms, " | ") + "."

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resp := openStream(t, ts, ctx, StreamRequest{DB: dbText})
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream produced only %d rows", i)
		}
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.stats.streamClientGone.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream_client_gone never incremented after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.breakerMu.Lock()
	defer srv.breakerMu.Unlock()
	for name, br := range srv.breakers {
		if st, _ := br.snapshot(); st != "closed" {
			t.Fatalf("breaker %q is %q after a client hangup", name, st)
		}
	}
}

// TestStreamRejections: malformed stream requests are typed 400s and a
// draining server sheds with 503; nothing leaks goroutines.
func TestStreamRejections(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		req  StreamRequest
		want string
	}{
		{StreamRequest{DB: "a |"}, ReasonBadRequest},
		{StreamRequest{DB: "a.", Kind: "frobnicate"}, ReasonBadRequest},
		{StreamRequest{}, ReasonBadRequest},
	} {
		resp := openStream(t, ts, context.Background(), tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d", tc.req, resp.StatusCode)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error != tc.want {
			t.Fatalf("%+v: error %q (%v)", tc.req, er.Error, err)
		}
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := openStream(t, ts, context.Background(), StreamRequest{DB: "a."})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}
