package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"disjunct/internal/serve"
)

// FuzzMembershipMerge decodes two fuzzed gossip bodies the way
// handleGossip does. For decoded states, Merge must be commutative and
// idempotent, its result must be one input normalised, and normalize
// must yield the input's members sorted and unique. A body that fails
// to decode must get handleGossip's typed 400; accepted bodies never
// reach the handler, because adopting members starts probes.
func FuzzMembershipMerge(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"epoch":1,"members":["http://a","http://b"]}`, `{"epoch":2,"members":["http://c"]}`},
		{`{"epoch":3,"members":["http://b","http://a","http://b"]}`, `{"epoch":3,"members":["http://a","http://b"]}`},
		{`{"epoch":5,"members":["x"]}`, `{"epoch":5,"members":["y"]}`},
		{`{"epoch":0,"members":null,"health":{"http://a":{"down":true}}}`, `{"epoch":0}`},
		{`{"epoch":-1}`, `{"members":"x"}`},
		{`not json`, ``},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	r := NewRouter(RouterConfig{ProbeInterval: time.Hour, GossipInterval: time.Hour}, nil)
	f.Cleanup(r.Close)
	h := r.Handler()
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ms []Membership
		for _, body := range [][]byte{a, b} {
			gs, err := decodeGossip(bytes.NewReader(body))
			if err == nil {
				ms = append(ms, Membership{Epoch: gs.Epoch, Members: gs.Members})
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/gossip", bytes.NewReader(body)))
			var er serve.ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
				er.Error != serve.ReasonBadRequest || er.Detail != "gossip body: "+err.Error() {
				t.Fatalf("rejected body %q (%v): gossip answered %d %s", body, err, rec.Code, rec.Body.Bytes())
			}
		}
		for _, m := range ms {
			n := m.normalize()
			for i := 1; i < len(n.Members); i++ {
				if n.Members[i-1] >= n.Members[i] {
					t.Fatalf("normalize(%q) = %q: not sorted and unique", m.Members, n.Members)
				}
			}
			for _, x := range m.Members {
				if _, ok := slices.BinarySearch(n.Members, x); !ok {
					t.Fatalf("normalize(%q) = %q lost %q", m.Members, n.Members, x)
				}
			}
			if self := Merge(m, m); !equalMembership(self, n) {
				t.Fatalf("Merge(m, m) = %+v, want %+v", self, n)
			}
		}
		if len(ms) < 2 {
			return
		}
		x, y := ms[0], ms[1]
		xy, yx := Merge(x, y), Merge(y, x)
		if !equalMembership(xy, yx) {
			t.Fatalf("Merge not commutative: %+v vs %+v", xy, yx)
		}
		if !equalMembership(xy, x.normalize()) && !equalMembership(xy, y.normalize()) {
			t.Fatalf("Merge(%+v, %+v) = %+v is neither input normalised", x, y, xy)
		}
		if again := Merge(xy, y); !equalMembership(again, xy) {
			t.Fatalf("Merge(Merge(x, y), y) = %+v, want %+v", again, xy)
		}
	})
}

func equalMembership(a, b Membership) bool {
	return a.Epoch == b.Epoch && slices.Equal(a.Members, b.Members)
}
