package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/serve"

	_ "disjunct/internal/semantics/all"
)

// TestClusterWarmJoin is the zero-cold-compile join contract: a fresh
// worker joins a warmed 3-node cluster, its future keyspace slice is
// prewarmed from the current owners before the ring flips, and a
// replay of the same workload afterwards is verdict-clean with the
// joiner serving its slice without a single cold compile.
func TestClusterWarmJoin(t *testing.T) {
	l := StartLocal(3, serve.Config{Sessions: true}, fastProbe(RouterConfig{Seed: 23}))
	defer l.Close()

	load := serve.LoadConfig{
		BaseURL: l.URL(), Rate: 400, Requests: 160, Workers: 8,
		Seed: 23, MaxAtoms: 4, Verify: true, HotDBs: 32,
	}
	// Twice: a text enters a worker's artifact cache on its second
	// sighting, and only cached artifacts are shipped to a joiner.
	for pass := 0; pass < 2; pass++ {
		if warm := serve.RunLoad(load); !warm.Clean() {
			t.Fatalf("warmup pass %d not clean: %s", pass, warm.String())
		}
	}

	epochBefore := l.Router.Epoch()
	w := l.StartWorker()
	rep, err := l.Router.JoinNode(context.Background(), w.URL())
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if rep.State != JoinStateFlipped {
		t.Fatalf("join state = %q, want %q", rep.State, JoinStateFlipped)
	}
	if rep.Epoch != epochBefore+1 {
		t.Fatalf("join epoch = %d, want %d", rep.Epoch, epochBefore+1)
	}
	if got := len(l.Router.Nodes()); got != 4 {
		t.Fatalf("ring size after join = %d, want 4", got)
	}
	if rep.Artifacts == 0 {
		t.Fatalf("no donor exported anything for the joiner's slice: %+v", rep)
	}
	if rep.ImportedArtifacts == 0 {
		t.Fatalf("joiner accepted zero of %d shipped artifacts: %+v", rep.Artifacts, rep)
	}
	if len(rep.Donors) == 0 {
		t.Fatalf("join report lists no donors: %+v", rep)
	}

	// Replay the identical workload: every key the joiner now owns was
	// warmed on a donor during warmup and shipped over, so the joiner
	// must serve its slice entirely from imported state.
	replay := serve.RunLoad(load)
	if !replay.Clean() {
		t.Fatalf("post-join replay not clean: %s\nuntyped: %v\ndivergent: %v",
			replay.String(), replay.UntypedNotes, replay.DivergeNotes)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	h, err := serve.FetchHealth(client, w.URL())
	if err != nil {
		t.Fatalf("joiner healthz: %v", err)
	}
	if cc := h.Sessions["cold_compiles"]; cc != 0 {
		t.Fatalf("joined node ran %d cold compiles on its prewarmed slice, want 0 (sessions %v)",
			cc, h.Sessions)
	}
	if h.Sessions["compiled_entries"] == 0 {
		t.Fatal("joined node holds zero compiled entries despite the import")
	}
	if st := l.Router.health().Stats; st["joins"] != 1 || st["join_artifacts"] == 0 {
		t.Fatalf("join counters off: joins=%d join_artifacts=%d", st["joins"], st["join_artifacts"])
	}
}

// TestClusterJoinRejections covers the failure half of the join
// taxonomy: joining an existing member is refused, and an unreachable
// joiner fails with the ring untouched (a failed join changes nothing).
func TestClusterJoinRejections(t *testing.T) {
	l := StartLocal(2, serve.Config{Sessions: true}, fastProbe(RouterConfig{Seed: 29}))
	defer l.Close()

	if _, err := l.Router.JoinNode(context.Background(), l.Workers[0].URL()); err == nil {
		t.Fatal("joining an existing member succeeded")
	}

	before := l.Router.Epoch()
	rep, err := l.Router.JoinNode(context.Background(), "http://127.0.0.1:1")
	if err == nil {
		t.Fatal("joining an unreachable node succeeded")
	}
	if rep.State != JoinStateFailed {
		t.Fatalf("failed join state = %q, want %q", rep.State, JoinStateFailed)
	}
	if l.Router.Epoch() != before || len(l.Router.Nodes()) != 2 {
		t.Fatalf("failed join disturbed the ring: epoch %d→%d members %v",
			before, l.Router.Epoch(), l.Router.Nodes())
	}

	// The HTTP form returns a conflict with the typed error envelope.
	resp, err := http.Post(l.URL()+"/v1/cluster/join?node=http://127.0.0.1:1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("join of unreachable node: status %d, want 409", resp.StatusCode)
	}
	var er serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("join error not typed: %v %+v", err, er)
	}
}

// TestBreakerReorder pins the candidate-reordering rules: open-breaker
// nodes are demoted behind breaker-clear ones (stably), the rerouted
// flag fires only when the primary actually changed, and the reorder
// never drops a node or applies without semantics information.
func TestBreakerReorder(t *testing.T) {
	r := NewRouter(RouterConfig{ProbeInterval: time.Hour, GossipInterval: time.Hour},
		[]string{"http://w1", "http://w2", "http://w3"})
	defer r.Close()
	r.node("http://w2").setOpenBreakers(map[string]bool{"GCWA": true})

	seq := []string{"http://w2", "http://w1", "http://w3"}
	got, rerouted := r.breakerReorder(seq, "GCWA")
	if !rerouted {
		t.Fatal("open-breaker primary not rerouted")
	}
	want := []string{"http://w1", "http://w3", "http://w2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reorder = %v, want %v", got, want)
		}
	}

	// Primary already clear: partition may apply but the flag stays off.
	if _, rr := r.breakerReorder([]string{"http://w1", "http://w2", "http://w3"}, "GCWA"); rr {
		t.Fatal("rerouted reported with a breaker-clear primary")
	}
	// Different semantics, no semantics, and all-blocked leave the
	// sequence alone.
	if got, rr := r.breakerReorder(seq, "EGCWA"); rr || got[0] != "http://w2" {
		t.Fatalf("unrelated semantics reordered: %v", got)
	}
	if _, rr := r.breakerReorder(seq, ""); rr {
		t.Fatal("reorder applied without semantics")
	}
	r.node("http://w1").setOpenBreakers(map[string]bool{"GCWA": true})
	r.node("http://w3").setOpenBreakers(map[string]bool{"GCWA": true})
	if got, rr := r.breakerReorder(seq, "GCWA"); rr || got[0] != "http://w2" {
		t.Fatalf("all-blocked sequence changed: %v", got)
	}
}

// TestClusterBreakerRouting is the end-to-end breaker-gossip contract:
// a worker whose GCWA breaker is open (tripped by real injected oracle
// faults) is routed around for (key, GCWA) pairs it owns — the request
// completes on a clear node with the library-identical verdict and the
// router accounts it as breaker_routed, while the open-breaker worker
// is never shed from the ring.
func TestClusterBreakerRouting(t *testing.T) {
	healthy := serve.New(serve.Config{Sessions: true})
	defer healthy.Drain(drainCtx())
	hURL := httptest.NewServer(healthy.Handler())
	defer hURL.Close()

	// Every oracle call faults and retries are off, so GCWA queries
	// terminate incomplete with transient_exhausted — the one cause
	// class that counts against the breaker. Sessions stay off: the
	// warm path bypasses fault injection and would never trip anything.
	faulty := serve.New(serve.Config{
		FaultRate: 1, FaultSeed: 1, RetryMax: -1,
		Breaker: serve.BreakerConfig{Threshold: 2, Cooldown: 30 * time.Second},
	})
	defer faulty.Drain(drainCtx())
	fURL := httptest.NewServer(faulty.Handler())
	defer fURL.Close()

	r := NewRouter(RouterConfig{ProbeInterval: 25 * time.Millisecond, Seed: 37, FailThreshold: 3},
		[]string{hURL.URL, fURL.URL})
	defer r.Close()
	rs := httptest.NewServer(r.Handler())
	defer rs.Close()

	// Find a database whose routing key the faulty worker owns. The
	// route key is a structural fingerprint, so candidates must differ
	// in shape (clause count), not just in atom names.
	var dbText, litText string
	for i := 0; i < 64; i++ {
		text := "a | b."
		for j := 0; j < i; j++ {
			text += fmt.Sprintf(" c%d.", j)
		}
		if r.ring.Owner(r.routeKey(text)) == fURL.URL {
			dbText, litText = text, "-a"
			break
		}
	}
	if dbText == "" {
		t.Fatal("no candidate database routed to the faulty worker")
	}

	// Trip the faulty worker's GCWA breaker with direct queries.
	post := func(url string) (int, serve.QueryResponse) {
		t.Helper()
		body, _ := json.Marshal(serve.QueryRequest{Semantics: "GCWA", DB: dbText, Literal: litText})
		resp, err := http.Post(url+"/v1/infer/literal", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post %s: %v", url, err)
		}
		defer resp.Body.Close()
		var qr serve.QueryResponse
		json.NewDecoder(resp.Body).Decode(&qr)
		return resp.StatusCode, qr
	}
	// Injected faults are a seeded mix of transient/cancel/latency and
	// only exhausted transients count against the breaker, so keep
	// querying until the router's probe has seen the breaker open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nh := r.health().Nodes[fURL.URL]
		if len(nh.OpenBreakers) > 0 {
			if !nh.Up {
				t.Fatalf("open breaker marked the whole node down: %+v", nh)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never picked up the open breaker: %+v", r.health().Nodes)
		}
		post(fURL.URL)
		time.Sleep(15 * time.Millisecond)
	}

	// The routed query must complete on the healthy node with the
	// library-identical verdict, not relay the faulty owner's 503.
	status, qr := post(rs.URL)
	if status != http.StatusOK || qr.Incomplete {
		t.Fatalf("breaker-routed query: status=%d incomplete=%v cause=%q", status, qr.Incomplete, qr.CauseCode)
	}
	d, err := db.Parse(dbText)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := d.Voc.Lookup(litText[1:])
	if !ok {
		t.Fatalf("atom %q lost in parse", litText[1:])
	}
	s, _ := core.New("GCWA", core.Options{})
	want, err := s.InferLiteral(d, logic.NegLit(a))
	if err != nil {
		t.Fatal(err)
	}
	if qr.Holds != want {
		t.Fatalf("breaker routing changed the verdict: served=%v library=%v", qr.Holds, want)
	}
	if br := r.health().Stats["breaker_routed"]; br == 0 {
		t.Fatal("breaker_routed counter never incremented")
	}
}
