package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"disjunct/internal/keyspace"
	"disjunct/internal/session"
)

// exportHandoff GETs /v1/handoff/export with an optional ?ranges= and
// decodes the result.
func exportHandoff(t *testing.T, baseURL, rawRanges string) session.Handoff {
	t.Helper()
	url := baseURL + "/v1/handoff/export"
	if rawRanges != "" {
		url += "?ranges=" + rawRanges
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export %q: status %d", rawRanges, resp.StatusCode)
	}
	var h session.Handoff
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("export decode: %v", err)
	}
	return h
}

// TestHandoffExportRanges is the warm-join slicing contract: a ?ranges=
// export returns exactly the artifacts and verdicts whose raw
// fingerprint hashes into the slice, and a slice plus its complement
// partition the full export with nothing lost or duplicated.
func TestHandoffExportRanges(t *testing.T) {
	_, ts := newSessionServer(t, Config{})

	// Structurally distinct disjunctive databases: distinct raw
	// fingerprints, so the keyspace actually spreads.
	dbs := []string{
		"a | b.",
		"a | b. c | d.",
		"a | b. c | d. e | f.",
		"a | b. c.",
		"a | b. c. d.",
	}
	// Two different queries per database: the second sighting caches
	// the artifact, and its verdict lands in the memo.
	for _, d := range dbs {
		for _, lit := range []string{"-a", "-b"} {
			status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "GCWA", DB: d, Literal: lit})
			if status != http.StatusOK {
				t.Fatalf("warm query on %q: status %d body %s", d, status, body)
			}
		}
	}

	full := exportHandoff(t, ts.URL, "")
	if len(full.Artifacts) < len(dbs) {
		t.Fatalf("full export has %d artifacts for %d databases", len(full.Artifacts), len(dbs))
	}
	if len(full.Verdicts) == 0 {
		t.Fatal("full export has no verdict memos")
	}

	// A one-key arc around the first artifact's hash and its exact
	// complement must partition the export.
	h0 := keyspace.HashKey(full.Artifacts[0].Raw)
	slice := keyspace.Ranges{{Lo: h0 - 1, Hi: h0}}
	rest := keyspace.Ranges{{Lo: h0, Hi: h0 - 1}}

	in := exportHandoff(t, ts.URL, slice.String())
	out := exportHandoff(t, ts.URL, rest.String())
	if len(in.Artifacts)+len(out.Artifacts) != len(full.Artifacts) {
		t.Fatalf("slice (%d) + complement (%d) ≠ full (%d) artifacts",
			len(in.Artifacts), len(out.Artifacts), len(full.Artifacts))
	}
	if len(in.Verdicts)+len(out.Verdicts) != len(full.Verdicts) {
		t.Fatalf("slice (%d) + complement (%d) ≠ full (%d) verdicts",
			len(in.Verdicts), len(out.Verdicts), len(full.Verdicts))
	}
	if len(in.Artifacts) == 0 {
		t.Fatalf("slice around %x returned no artifacts", h0)
	}
	for _, a := range in.Artifacts {
		if !slice.ContainsKey(a.Raw) {
			t.Fatalf("artifact %x leaked into the slice", keyspace.HashKey(a.Raw))
		}
	}
	for _, v := range in.Verdicts {
		if !slice.ContainsKey(v.Raw) {
			t.Fatalf("verdict %x leaked into the slice", keyspace.HashKey(v.Raw))
		}
	}
	for _, a := range out.Artifacts {
		if slice.ContainsKey(a.Raw) {
			t.Fatalf("artifact %x missing from its slice", keyspace.HashKey(a.Raw))
		}
	}
}

// TestHandoffExportBadRanges pins the typed-4xx contract of both
// handoff endpoints: a malformed slice must be refused, never treated
// as "no filter" — exporting the wrong slice would silently break the
// join's zero-cold-compile gate — and a server without the session
// layer refuses both endpoints. Every refusal bumps /healthz
// bad_request by exactly one and no other counter.
func TestHandoffExportBadRanges(t *testing.T) {
	sessions := New(Config{Sessions: true})
	plain := New(Config{})
	type row struct {
		name   string
		srv    *Server
		method string
		target string
		status int
	}
	var rows []row
	for _, bad := range []string{"zz", "1-2-3", "g-1", "1-", ","} {
		rows = append(rows, row{"ranges=" + bad, sessions, http.MethodGet, "/v1/handoff/export?ranges=" + bad, http.StatusBadRequest})
	}
	rows = append(rows,
		row{"export/sessions_off", plain, http.MethodGet, "/v1/handoff/export", http.StatusNotFound},
		row{"import/sessions_off", plain, http.MethodPost, "/v1/handoff/import", http.StatusNotFound},
	)
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			before := frontDoorStats(t, c.srv)
			rec := httptest.NewRecorder()
			c.srv.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader("{}")))
			after := frontDoorStats(t, c.srv)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d; body %s", rec.Code, c.status, rec.Body.Bytes())
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != ReasonBadRequest {
				t.Fatalf("body %s, want reason %q", rec.Body.Bytes(), ReasonBadRequest)
			}
			for name, v := range after {
				want := before[name]
				if name == "bad_request" {
					want++
				}
				if v != want {
					t.Fatalf("stat %s = %d, want %d", name, v, want)
				}
			}
		})
	}
}
