package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/session"
)

// routeBodies are request bodies the router may see: flat queries,
// every shape the one-pass scanner hands back to encoding/json, batch
// and stream bodies, malformed JSON, and valid prefixes followed by
// junk.
var routeBodies = []string{
	`{"semantics":"GCWA","db":"a | b.","literal":"-a"}`,
	`{"semantics":"DSM","db":"a :- not b.\nc | d.\n","literal":"-b","limits":{"conflicts":50,"deadline_ms":-5}}`,
	`{"semantics":"ECWA","db":"a | b.\nc :- a.\n","formula":"a -> c"}`,
	`{"semantics":"PERF","db":"a :- not b. :- a."}`,
	` {"db" : "a | b." , "semantics" : "CWA" } ` + "\n\t",
	`{}`,
	`{"db":""}`,
	`{"semantics":"GCWA","db":"a & b.\/\t"}`,
	`{"semantics":"GCWA","db":"a😀 | b."}`,
	`{"semantics":"GCWA","db":"a \u0026 b.\ud83d\ude00 | c.\n"}`,
	`{"semantics":"GCWA","db":"p | q."}`,
	// Handed back: case-variant and unknown keys.
	`{"DB":"a | b.","Semantics":"GCWA"}`,
	`{"dB":"a | b.","semanticS":"DSM"}`,
	`{"db":"a | b.","semantics":"GCWA","extra":1}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"conflict":1}}`,
	// Duplicate keys: the last one wins.
	`{"db":"a.","db":"a | b.","semantics":"GCWA","semantics":"DSM"}`,
	`{"db":"a | b.","limits":{"np_calls":1,"np_calls":2}}`,
	// null, anywhere.
	`null`,
	`{"db":null,"semantics":"GCWA"}`,
	`{"db":"a | b.","semantics":null}`,
	`{"db":"a | b.","limits":null}`,
	`{"db":"a | b.","limits":{"conflicts":null}}`,
	// Non-integer and out-of-range numbers.
	`{"db":"a | b.","semantics":"GCWA","limits":{"conflicts":1.5}}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"conflicts":1e3}}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"np_calls":99999999999999999999}}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"np_calls":-9223372036854775809}}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"np_calls":-0}}`,
	`{"db":"a | b.","semantics":"GCWA","limits":{"np_calls":01}}`,
	// Wrong types: encoding/json keeps the fields it could set.
	`{"db":5,"semantics":"GCWA"}`,
	`{"db":"a | b.","semantics":true}`,
	`{"db":"a | b.","semantics":"GCWA","limits":"x"}`,
	`{"db":"a | b.","semantics":"GCWA","literal":7}`,
	// Lone and invalid surrogates, invalid UTF-8, control characters.
	`{"semantics":"GCWA","db":"a\ud800 | b."}`,
	`{"semantics":"GCWA","db":"a\udc00 | b."}`,
	`{"semantics":"GCWA","db":"a\ud800A | b."}`,
	`{"semantics":"GCWA","db":"a\u12 | b."}`,
	`{"semantics":"GCWA","db":"a\x | b."}`,
	"{\"semantics\":\"GCWA\",\"db\":\"a\xff | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a\xed\xa0\x80 | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a\x01 | b.\"}",
	"{\"semantics\":\"GCWA\",\"db\":\"a | b.\n\"}",
	// Batch and stream bodies.
	`{"semantics":"GCWA","db":"a | b. b | c.","queries":[{"literal":"-a"},{"semantics":"DSM","literal":"b"}]}`,
	`{"db":"a.","queries":[]}`,
	`{"db":"a | b. b | c.","kind":"minimal"}`,
	`{"db":"a | b | c. d | e.","parallel":true,"limit":3}`,
	// Malformed JSON.
	``,
	`not json`,
	`[]`,
	`"db"`,
	`{`,
	`{"db":"a | b.`,
	`{"db":"a | b."`,
	`{"db":"a | b.",}`,
	`{"db" "a | b."}`,
	`{"db":"a | b.";"semantics":"GCWA"}`,
	`{'db':'a.'}`,
	// A valid prefix followed by junk.
	`{"db":"a | b.","semantics":"GCWA"}junk`,
	`{"db":"a | b.","semantics":"GCWA"}{}`,
	`{"db":"a | b.","semantics":"GCWA"} x`,
	`{"db":"a | b.","semantics":"GCWA"}` + strings.Repeat(" ", 1<<20) + `!`,
	`{"db":"a | b.","semantics":"GCWA"}` + strings.Repeat(" ", 1<<20),
}

// unmarshalRoute is the routing decision as the router made it before
// the one-pass scanner: json.Unmarshal into dbBody, then the raw
// compiled-DB fingerprint of the text, or the text itself when it does
// not parse.
func unmarshalRoute(body []byte) (key, sem string) {
	var b struct {
		DB        string `json:"db"`
		Semantics string `json:"semantics"`
	}
	json.Unmarshal(body, &b)
	key = "text:" + b.DB
	if d, err := db.Parse(b.DB); err == nil {
		key = session.RawKey(d.N(), d.ToCNF())
	}
	return key, b.Semantics
}

// TestRouteMatchesUnmarshal: every body routes to the same key and
// semantics as json.Unmarshal into dbBody did, on a key-cache miss and
// on the hit that follows.
func TestRouteMatchesUnmarshal(t *testing.T) {
	r := NewRouter(RouterConfig{}, nil)
	defer r.Close()
	for _, body := range routeBodies {
		wantKey, wantSem := unmarshalRoute([]byte(body))
		for _, pass := range []string{"miss", "hit"} {
			key, sem := r.route([]byte(body))
			if key != wantKey || sem != wantSem {
				name := body
				if len(name) > 80 {
					name = name[:80] + "…"
				}
				t.Errorf("%s %q: routed (%q, %q), want (%q, %q)", pass, name, key, sem, wantKey, wantSem)
			}
		}
	}
}
