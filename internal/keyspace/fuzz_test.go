package keyspace_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"disjunct/internal/keyspace"
	"disjunct/internal/serve"

	_ "disjunct/internal/semantics/all"
)

// FuzzParseRanges feeds arbitrary text to ParseRanges and to the
// export endpoint's ?ranges= parameter. It must never panic; an
// accepted slice must come back unchanged through String and
// ParseRanges; and the endpoint must answer a rejected slice with a
// typed 400 carrying the parse error, an accepted one with a 200.
func FuzzParseRanges(f *testing.F) {
	for _, seed := range []string{
		"", "0-1", "ffffffffffffffff-0", "1-2,3-4", "0-0", "00a-B",
		"zz", "1-2-3", "g-1", "1-", "-1", "1,2", "1-2,", ",", "-",
		"10000000000000000-1", "+1-2", "0x1-2", " 1-2", "1-2 ", "1-2,,3-4",
	} {
		f.Add(seed)
	}
	srv := serve.New(serve.Config{Sessions: true})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, text string) {
		rs, err := keyspace.ParseRanges(text)
		if err == nil {
			back, err := keyspace.ParseRanges(rs.String())
			if err != nil || !slices.Equal(back, rs) {
				t.Fatalf("%q parsed to %v; its String %q parsed back to %v, %v", text, rs, rs.String(), back, err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/handoff/export?ranges="+url.QueryEscape(text), nil))
		if err == nil {
			if rec.Code != http.StatusOK {
				t.Fatalf("accepted ranges %q: export answered %d %s", text, rec.Code, rec.Body.Bytes())
			}
			return
		}
		var er serve.ErrorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
			er.Error != serve.ReasonBadRequest || er.Detail != err.Error() {
			t.Fatalf("rejected ranges %q (%v): export answered %d %s", text, err, rec.Code, rec.Body.Bytes())
		}
	})
}
