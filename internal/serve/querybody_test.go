package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// scannedBodies are flat query bodies the scanner decodes itself.
var scannedBodies = []string{
	`{"semantics":"GCWA","db":"a | b.","literal":"-a"}`,
	`{"semantics":"DSM","db":"a :- not b.\nc | d.\n","literal":"-b","limits":{"conflicts":50,"deadline_ms":-5}}`,
	`{"semantics":"ECWA","db":"a | b.\nc :- a.\n","formula":"a -> c","limits":{"np_calls":9223372036854775807,"propagations":-9223372036854775808}}`,
	`{"semantics":"PERF","db":"a :- not b. :- a."}`,
	` {"db" : "a | b." , "semantics" : "CWA" , "limits" : { } } ` + "\r\n\t",
	`{}`,
	`{"db":"a | b."}`,
	`{"db":"","literal":"","formula":""}`,
	`{"semantics":"GCWA","db":"a \u0026 b.\u00e9\/\t\"\\\b\f\r"}`,
	`{"semantics":"GCWA","db":"a\ud83d\ude00 | b.","literal":"a"}`,
	`{"semantics":"GCWA","db":"a😀 | b."}`,
	`{"semantics":"NOPE","db":"a."}`,
	`{"db":"a | b.","limits":{"np_calls":-0}}`,
}

// handedBackBodies are every shape the scanner must leave to
// encoding/json.
var handedBackBodies = []string{
	// Case-variant, unknown and escaped keys.
	`{"DB":"a | b.","Semantics":"GCWA"}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"NP_CALLS":1}}`,
	`{"db":"a | b.","semantics":"GCWA","extra":1}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"conflict":1}}`,
	`{"d\u0062":"a | b."}`,
	`{"ſemantics":"GCWA","db":"a."}`,
	// Duplicate keys.
	`{"db":"a.","db":"a | b.","semantics":"GCWA"}`,
	`{"db":"a | b.","limits":{"np_calls":1,"np_calls":2}}`,
	// null.
	`null`,
	`{"db":null,"semantics":"GCWA"}`,
	`{"db":"a | b.","limits":null}`,
	`{"db":"a | b.","limits":{"conflicts":null}}`,
	// Non-integer and out-of-range numbers.
	`{"db":"a | b.","limits":{"conflicts":1.5}}`,
	`{"db":"a | b.","limits":{"conflicts":1e3}}`,
	`{"db":"a | b.","limits":{"conflicts":1E3}}`,
	`{"db":"a | b.","limits":{"np_calls":9223372036854775808}}`,
	`{"db":"a | b.","limits":{"np_calls":-9223372036854775809}}`,
	`{"db":"a | b.","limits":{"np_calls":99999999999999999999}}`,
	`{"db":"a | b.","limits":{"np_calls":01}}`,
	`{"db":"a | b.","limits":{"np_calls":-}}`,
	`{"db":"a | b.","limits":{"np_calls":"1"}}`,
	// Lone and invalid surrogates, bad escapes, invalid UTF-8, control
	// characters.
	`{"semantics":"GCWA","db":"a\ud800 | b."}`,
	`{"semantics":"GCWA","db":"a\udc00 | b."}`,
	`{"semantics":"GCWA","db":"a\ud800A | b."}`,
	`{"semantics":"GCWA","db":"a\ud800\ud800 | b."}`,
	`{"semantics":"GCWA","db":"a\ud800"}`,
	`{"semantics":"GCWA","db":"a\u12 | b."}`,
	`{"semantics":"GCWA","db":"a\x | b."}`,
	"{\"semantics\":\"GCWA\",\"db\":\"a\xff | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a\\n\xff | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a\xed\xa0\x80 | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a\x01 | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a | b.\n\"}",
	// Wrong types.
	`{"db":5,"semantics":"GCWA"}`,
	`{"db":"a | b.","semantics":true}`,
	`{"db":"a | b.","limits":"x"}`,
	`{"db":"a | b.","limits":[]}`,
	// Batch and stream bodies.
	`{"semantics":"GCWA","db":"a | b. b | c.","queries":[{"literal":"-a"}]}`,
	`{"db":"a | b. b | c.","kind":"minimal"}`,
	// Malformed JSON.
	``,
	`not json`,
	`[]`,
	`{`,
	`{"db":"a | b.`,
	`{"db":"a | b."`,
	`{"db":"a | b.",}`,
	`{"db" "a | b."}`,
	`{,}`,
	// Anything after the object.
	`{"db":"a | b.","semantics":"GCWA"}junk`,
	`{"db":"a | b.","semantics":"GCWA"}{}`,
	`{"db":"a | b.","semantics":"GCWA"} ,`,
}

// queryBodyCaps are the body caps the intake is compared under: the
// query routes' own, and one the body reaches.
func queryBodyCaps(body []byte) []int64 {
	return []int64{1 << 20, int64(len(body)/2 + 1)}
}

// decodeOutcome is what an intake gives for one body: the request, or
// the error text.
func decodeOutcome(req QueryRequest, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return string(mustMarshal(req))
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// checkQueryBody is the differential property: whatever the scanner
// accepts, json.Decoder decodes to the same QueryRequest and
// json.Unmarshal into the router's fields gives the same db and
// semantics; and the intake as a whole, scanner and fallback, answers
// every body under every cap exactly as json.Decoder over the same
// MaxBytesReader does.
func checkQueryBody(t *testing.T, body []byte) {
	var qb QueryBody
	qb.Scan([]byte(`{"db":"\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n","literal":"\t"}`))
	if qb.Scan(body) {
		got := qb.request()
		var want QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil || got != want {
			t.Fatalf("scanned %+v; json.Decoder gives %+v, %v", got, want, err)
		}
		var route struct {
			DB        string `json:"db"`
			Semantics string `json:"semantics"`
		}
		if err := json.Unmarshal(body, &route); err != nil || route.DB != string(qb.DB) || route.Semantics != qb.Semantics {
			t.Fatalf("scanned db %q, semantics %q; json.Unmarshal gives %q, %q, %v", qb.DB, qb.Semantics, route.DB, route.Semantics, err)
		}
	}
	for _, limit := range queryBodyCaps(body) {
		var got, want QueryRequest
		gotErr := readQueryRequest(http.MaxBytesReader(nil, nopBody{bytes.NewReader(body)}, limit), &got)
		wantErr := json.NewDecoder(http.MaxBytesReader(nil, nopBody{bytes.NewReader(body)}, limit)).Decode(&want)
		if g, w := decodeOutcome(got, gotErr), decodeOutcome(want, wantErr); g != w {
			t.Fatalf("cap %d: intake gives %s, json.Decoder %s", limit, g, w)
		}
	}
}

// nopBody is a request body over a reader.
type nopBody struct{ *bytes.Reader }

func (nopBody) Close() error { return nil }

// FuzzDecodeQueryBody checks the scanner against encoding/json on
// arbitrary bytes; see checkQueryBody.
func FuzzDecodeQueryBody(f *testing.F) {
	for _, seed := range append(scannedBodies, handedBackBodies...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkQueryBody(t, body) })
}

// TestScanTakesFlatBodiesOnly pins which seeds the scanner decodes
// itself; FuzzDecodeQueryBody checks that both kinds decode as
// encoding/json decodes them.
func TestScanTakesFlatBodiesOnly(t *testing.T) {
	var qb QueryBody
	for _, body := range scannedBodies {
		if !qb.Scan([]byte(body)) {
			t.Errorf("handed back the flat body %q", body)
		}
	}
	for _, body := range handedBackBodies {
		if qb.Scan([]byte(body)) {
			t.Errorf("scanned %q, which encoding/json must decode", body)
		}
	}
}

// TestQueryBodyPastTheCap: a body that reaches its cap is decided by
// json.Decoder over the bytes read and the rest of the capped reader,
// so a whole object followed by junk past the cap is still accepted
// and an object cut by the cap still fails with the reader's error.
func TestQueryBodyPastTheCap(t *testing.T) {
	obj := `{"semantics":"GCWA","db":"a | b.\n","literal":"-a"}`
	for _, body := range []string{
		obj + strings.Repeat("junk", 512<<10),
		obj + strings.Repeat(" ", 2<<20),
		`{"semantics":"GCWA","db":"a | b.` + strings.Repeat(" ", 2<<20) + `","literal":"-a"}`,
	} {
		checkQueryBody(t, []byte(body))
	}
	srv := New(Config{})
	rec := serveBody(srv, context.Background(), "/v1/infer/literal", []byte(obj+strings.Repeat("junk", 512<<10)))
	if rec.Code != http.StatusOK {
		t.Fatalf("object followed by 2 MiB of junk: %d %s, want 200", rec.Code, rec.Body.Bytes())
	}
}
