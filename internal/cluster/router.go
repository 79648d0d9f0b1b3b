package cluster

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disjunct/internal/db"
	"disjunct/internal/faults"
	"disjunct/internal/serve"
	"disjunct/internal/session"
)

// RouterConfig tunes the cluster router. The zero value gets defaults
// from NewRouter.
type RouterConfig struct {
	// Replicas is the ring's virtual-node count per worker
	// (default DefaultReplicas).
	Replicas int
	// FailoverMax bounds how many ring successors a request may fail
	// over to beyond its owner (default 2). Only idempotent inference
	// requests fail over; failover never retries a node that already
	// produced a response.
	FailoverMax int
	// ProbeInterval is the health-probe period per node, and also the
	// Retry-After hint on node_unavailable sheds — the cluster-level
	// analogue of the breaker's half-open interval (default 250ms).
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive request/probe failures mark
	// a node down until a probe succeeds again (default 3).
	FailThreshold int
	// Seed feeds the full-jitter backoff between failover attempts and
	// the per-node probe/gossip schedules, so a failover storm after a
	// node kill decorrelates deterministically and two routers with
	// different seeds never probe in lockstep.
	Seed int64
	// GossipInterval is the period of the membership/health gossip
	// exchange with each peer router (default 500ms). Irrelevant with
	// no peers.
	GossipInterval time.Duration
	// KeyCache bounds the DB-text → route-key LRU (default 4096).
	KeyCache int
	// Transport overrides the HTTP transport to the workers — the
	// node-chaos hook (default http.DefaultTransport).
	Transport http.RoundTripper
	// RequestTimeout bounds one forwarded attempt (default 30s;
	// streams are exempt).
	RequestTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.FailoverMax < 0 {
		c.FailoverMax = 0
	} else if c.FailoverMax == 0 {
		c.FailoverMax = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.KeyCache <= 0 {
		c.KeyCache = 4096
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// node is the router's view of one worker.
type node struct {
	name string   // ring member id == base URL
	url  string   // base URL, no trailing slash
	base *url.URL // url parsed once; nil when it does not parse

	down     atomic.Bool
	draining atomic.Bool
	fails    atomic.Int32 // consecutive failures toward FailThreshold
	// probed flips true after the first firsthand probe of this node.
	// Until then, gossip from a peer router may fill in down/draining/
	// breaker state; once we have probed ourselves, firsthand knowledge
	// always wins over secondhand gossip.
	probed atomic.Bool

	bkMu         sync.Mutex
	openBreakers map[string]bool // semantics → breaker currently open
}

// newNode is the health record of a worker joining the ring, by
// AddNode or by gossip.
func newNode(name string) *node {
	base, _ := url.Parse(name) // nil if it does not parse: every attempt then fails over
	return &node{name: name, url: name, base: base}
}

// request builds one forwarded attempt at path on the node. The URL
// is the node's parsed base with path appended, so no attempt parses
// a URL; the body stays replayable through GetBody.
func (n *node) request(ctx context.Context, method, path string, body []byte) (*http.Request, bool) {
	if n.base == nil {
		return nil, false
	}
	u := *n.base
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	out := &http.Request{
		Method:        method,
		URL:           &u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          http.NoBody,
		GetBody:       func() (io.ReadCloser, error) { return http.NoBody, nil },
		ContentLength: int64(len(body)),
	}
	if len(body) > 0 {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	return out.WithContext(ctx), true
}

// setOpenBreakers replaces the node's known-open breaker set.
func (n *node) setOpenBreakers(open map[string]bool) {
	n.bkMu.Lock()
	n.openBreakers = open
	n.bkMu.Unlock()
}

// breakerOpen reports whether the node's breaker for a semantics is
// known open. Unknown semantics (or no probe data yet) reads closed —
// breaker routing is an optimization hint, never a reason to shed.
func (n *node) breakerOpen(sem string) bool {
	if sem == "" {
		return false
	}
	n.bkMu.Lock()
	defer n.bkMu.Unlock()
	return n.openBreakers[sem]
}

// openBreakerList returns the sorted open-breaker semantics names.
func (n *node) openBreakerList() []string {
	n.bkMu.Lock()
	out := make([]string, 0, len(n.openBreakers))
	for sem := range n.openBreakers {
		out = append(out, sem)
	}
	n.bkMu.Unlock()
	sort.Strings(out)
	return out
}

// routerStats are the monotonic counters surfaced by the router's
// /healthz — the smoke harness computes the post-kill failover
// completion ratio from failovers / failover_success.
type routerStats struct {
	forwarded       atomic.Int64 // requests relayed with a worker response
	failovers       atomic.Int64 // requests that needed ≥1 failover hop
	failoverSuccess atomic.Int64 // of those, requests a later node answered
	shedUnavailable atomic.Int64 // typed node_unavailable sheds
	streamNodeLost  atomic.Int64 // streams terminated with cause node_lost
	probes          atomic.Int64
	keyHits         atomic.Int64
	keyMisses       atomic.Int64
	handoffArts     atomic.Int64 // artifacts moved by drain handoffs
	handoffVerds    atomic.Int64 // verdicts moved by drain handoffs
	breakerRouted   atomic.Int64 // requests routed around an open breaker
	gossipSent      atomic.Int64 // gossip exchanges initiated
	gossipRecv      atomic.Int64 // gossip messages received
	gossipAdopted   atomic.Int64 // membership adoptions from gossip
	joins           atomic.Int64 // warm joins completed
	joinArts        atomic.Int64 // artifacts shipped to joining nodes
	joinVerds       atomic.Int64 // verdicts shipped to joining nodes
}

// Router is the stateless cluster front: it owns the ring, the node
// health state, and the drain orchestration, and forwards every
// request to the worker owning its compiled-DB fingerprint. It holds
// no inference state of its own — restarting the router loses nothing.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client

	nodeMu sync.RWMutex
	nodes  map[string]*node

	// memberMu serializes membership mutations so the (epoch, member
	// set) pair every gossip message carries is always a snapshot some
	// mutation actually produced — never a torn read mid-flip.
	memberMu sync.Mutex
	epoch    atomic.Uint64

	peerMu sync.RWMutex
	peers  []string // peer router base URLs

	keyMu   sync.Mutex
	keyLRU  *list.List               // front = most recent; values are *keyEntry
	keyIdx  map[string]*list.Element // db text → entry
	stats   routerStats
	mux     *http.ServeMux
	stopped chan struct{}
	stopOne sync.Once
	probeWG sync.WaitGroup
}

type keyEntry struct {
	text string
	key  string
}

// NewRouter builds a router over an initial worker set (base URLs) and
// starts its health-probe loop. Call Close to stop probing.
func NewRouter(cfg RouterConfig, workers []string) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Replicas),
		client:  &http.Client{Transport: cfg.Transport},
		nodes:   map[string]*node{},
		keyLRU:  list.New(),
		keyIdx:  map[string]*list.Element{},
		stopped: make(chan struct{}),
	}
	for _, w := range workers {
		r.AddNode(w)
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/infer/literal", r.forwardQuery)
	r.mux.HandleFunc("POST /v1/infer/formula", r.forwardQuery)
	r.mux.HandleFunc("POST /v1/model", r.forwardQuery)
	r.mux.HandleFunc("POST /v1/batch", r.forwardQuery)
	r.mux.HandleFunc("POST /v1/models/stream", r.forwardStream)
	r.mux.HandleFunc("GET /v1/semantics", r.forwardAny)
	r.mux.HandleFunc("POST /v1/cluster/drain", r.handleDrain)
	r.mux.HandleFunc("POST /v1/cluster/join", r.handleJoin)
	r.mux.HandleFunc("POST /v1/cluster/gossip", r.handleGossip)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /readyz", r.handleReadyz)
	r.probeWG.Add(1)
	go r.gossipLoop()
	return r
}

// Handler returns the router's HTTP handler tree.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the probe loop. Idempotent.
func (r *Router) Close() {
	r.stopOne.Do(func() { close(r.stopped) })
	r.probeWG.Wait()
}

// AddNode inserts a worker (base URL) into the ring and health set,
// bumping the membership epoch when the ring actually changed.
func (r *Router) AddNode(baseURL string) {
	name := strings.TrimSuffix(baseURL, "/")
	r.memberMu.Lock()
	r.nodeMu.Lock()
	n, existed := r.nodes[name]
	if !existed {
		n = newNode(name)
		r.nodes[name] = n
	}
	r.nodeMu.Unlock()
	if r.ring.Add(name) {
		r.epoch.Add(1)
	}
	r.memberMu.Unlock()
	if !existed {
		r.startProbe(n)
	}
}

// RemoveNode drops a worker abruptly — no handoff. Use DrainNode for
// the graceful path.
func (r *Router) RemoveNode(baseURL string) {
	name := strings.TrimSuffix(baseURL, "/")
	r.memberMu.Lock()
	if r.ring.Remove(name) {
		r.epoch.Add(1)
	}
	r.nodeMu.Lock()
	delete(r.nodes, name)
	r.nodeMu.Unlock()
	r.memberMu.Unlock()
}

// Epoch reports the current membership epoch.
func (r *Router) Epoch() uint64 { return r.epoch.Load() }

// membership snapshots the epoch-tagged member set under the mutation
// lock, so the pair is always consistent.
func (r *Router) membership() Membership {
	r.memberMu.Lock()
	m := Membership{Epoch: r.epoch.Load(), Members: r.ring.Members()}
	r.memberMu.Unlock()
	return m
}

// adoptMembership installs a gossiped membership if it beats the local
// one under the (epoch, hash) order, diff-updating the ring (only
// joined/left nodes' keys remap) and the node health set. Reports
// whether an adoption happened.
func (r *Router) adoptMembership(in Membership) bool {
	in = in.normalize()
	r.memberMu.Lock()
	cur := Membership{Epoch: r.epoch.Load(), Members: r.ring.Members()}
	if !in.Beats(cur) {
		r.memberMu.Unlock()
		return false
	}
	want := make(map[string]bool, len(in.Members))
	for _, m := range in.Members {
		want[m] = true
	}
	var added []*node
	r.nodeMu.Lock()
	for name := range r.nodes {
		if !want[name] {
			delete(r.nodes, name)
		}
	}
	for _, m := range in.Members {
		if _, ok := r.nodes[m]; !ok {
			n := newNode(m)
			r.nodes[m] = n
			added = append(added, n)
		}
	}
	r.nodeMu.Unlock()
	r.ring.SetMembers(in.Members)
	r.epoch.Store(in.Epoch)
	r.memberMu.Unlock()
	r.stats.gossipAdopted.Add(1)
	for _, n := range added {
		r.startProbe(n)
	}
	return true
}

// AddPeer registers a peer router for membership/health gossip.
// One-sided peering suffices for convergence: each exchange is
// push-pull (we send our state, the reply carries theirs), so the peer
// need not list us back.
func (r *Router) AddPeer(baseURL string) {
	name := strings.TrimSuffix(baseURL, "/")
	r.peerMu.Lock()
	for _, p := range r.peers {
		if p == name {
			r.peerMu.Unlock()
			return
		}
	}
	r.peers = append(r.peers, name)
	r.peerMu.Unlock()
}

// Peers lists the gossip peers.
func (r *Router) Peers() []string {
	r.peerMu.RLock()
	out := append([]string(nil), r.peers...)
	r.peerMu.RUnlock()
	return out
}

// Nodes lists the current members, sorted.
func (r *Router) Nodes() []string { return r.ring.Members() }

func (r *Router) node(name string) *node {
	r.nodeMu.RLock()
	n := r.nodes[name]
	r.nodeMu.RUnlock()
	return n
}

// fail records one failure against a node; at FailThreshold the node
// goes down until a probe succeeds.
func (r *Router) fail(n *node) {
	if n == nil {
		return
	}
	if int(n.fails.Add(1)) >= r.cfg.FailThreshold {
		n.down.Store(true)
	}
}

// recover marks a node healthy again (probe success).
func (r *Router) recover(n *node) {
	n.fails.Store(0)
	n.down.Store(false)
}

// ProbeDelay is the seeded jittered delay before probe `round` of
// `node`: uniform in [interval/2, 3·interval/2), drawn from a
// splitmix64 stream keyed by (seed, node, round). The full-jitter
// discipline matches internal/faults — deterministic for a given seed,
// decorrelated across seeds — so two routers with different seeds (or
// one router's probes of different nodes) never fall into lockstep
// after a partition heals. Exported for the desynchronization test.
func ProbeDelay(seed int64, node string, round uint64, interval time.Duration) time.Duration {
	h := splitmix64(uint64(seed) ^ fnv64a(node) ^ splitmix64(round+0x632be59bd9b4e019))
	frac := float64(h>>11) / float64(1<<53) // uniform [0,1)
	return interval/2 + time.Duration(frac*float64(interval))
}

// startProbe spawns the per-node probe schedule. The goroutine exits
// when the router stops or the node is removed (or replaced) in the
// health set — a stale goroutine never probes on behalf of a new
// registration.
func (r *Router) startProbe(n *node) {
	r.probeWG.Add(1)
	go func() {
		defer r.probeWG.Done()
		t := time.NewTimer(0)
		if !t.Stop() {
			<-t.C
		}
		for round := uint64(0); ; round++ {
			t.Reset(ProbeDelay(r.cfg.Seed, n.name, round, r.cfg.ProbeInterval))
			select {
			case <-r.stopped:
				t.Stop()
				return
			case <-t.C:
			}
			if r.node(n.name) != n {
				return
			}
			r.probeOne(n)
		}
	}()
}

// probeOne is the probe-driven half-open mechanism at node level: a
// downed node takes no traffic until a probe succeeds, at which point
// it is instantly fully restored. The probe interval is therefore the
// honest Retry-After hint for node_unavailable sheds. Probing GET
// /healthz (not /readyz) gets liveness and the per-semantics breaker
// states in one round trip: the healthz Status field distinguishes
// "ok" from "draining" and "prewarming", and the breakers map feeds
// breaker-aware routing.
func (r *Router) probeOne(n *node) {
	r.stats.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		n.probed.Store(true)
		n.draining.Store(false)
		r.fail(n)
		return
	}
	var h struct {
		Status   string `json:"status"`
		Breakers map[string]struct {
			State string `json:"state"`
		} `json:"breakers"`
	}
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h)
	resp.Body.Close()
	n.probed.Store(true)
	if resp.StatusCode != http.StatusOK || decErr != nil {
		n.draining.Store(false)
		r.fail(n)
		return
	}
	open := map[string]bool{}
	for sem, b := range h.Breakers {
		if b.State == "open" {
			open[sem] = true
		}
	}
	n.setOpenBreakers(open)
	switch h.Status {
	case "ok":
		n.draining.Store(false)
		r.recover(n)
	case serve.ShedDraining:
		// Alive but must take no new traffic; track the distinction for
		// /healthz, route around it either way.
		n.draining.Store(true)
		r.fail(n)
	default:
		// "prewarming" (or any future not-ready state): alive, not
		// serving yet.
		n.draining.Store(false)
		r.fail(n)
	}
}

// routeKey maps a request's database text to its routing key: the raw
// compiled-DB fingerprint (session.RawKey over the grounded CNF), which
// is exactly the session key workers memoize under — so routing on it
// gives perfect warm-session locality. Unparseable texts route on the
// text itself; the owning worker will produce the typed 400.
func (r *Router) routeKey(dbText []byte) string {
	r.keyMu.Lock()
	if el, ok := r.keyIdx[string(dbText)]; ok {
		r.keyLRU.MoveToFront(el)
		k := el.Value.(*keyEntry).key
		r.keyMu.Unlock()
		r.stats.keyHits.Add(1)
		return k
	}
	r.keyMu.Unlock()
	r.stats.keyMisses.Add(1)

	text := string(dbText)
	key := "text:" + text
	if d, err := db.Parse(text); err == nil {
		key = session.RawKey(d.N(), d.ToCNF())
	}

	r.keyMu.Lock()
	if el, ok := r.keyIdx[text]; ok { // racing fill: keep the winner
		r.keyLRU.MoveToFront(el)
		key = el.Value.(*keyEntry).key
	} else {
		r.keyIdx[text] = r.keyLRU.PushFront(&keyEntry{text: text, key: key})
		for r.keyLRU.Len() > r.cfg.KeyCache {
			victim := r.keyLRU.Back()
			r.keyLRU.Remove(victim)
			delete(r.keyIdx, victim.Value.(*keyEntry).text)
		}
	}
	r.keyMu.Unlock()
	return key
}

// dbBody is what the router needs from any query body: the database
// text for routing, and the semantics name for breaker-aware candidate
// ordering. For batch bodies Semantics is the batch default — per-query
// overrides stay the worker's business.
type dbBody struct {
	DB        string `json:"db"`
	Semantics string `json:"semantics"`
}

// route is the one routing decision for a buffered query, batch or
// stream body: its routing key and its semantics name. A flat query
// body is read by serve's one-pass scanner, whose db view finds a
// key-cache hit without a copy; any other body goes through
// json.Unmarshal into dbBody, which the scanner agrees with on every
// body it takes.
func (r *Router) route(body []byte) (key, sem string) {
	qb := queryBodies.Get().(*serve.QueryBody)
	defer queryBodies.Put(qb)
	if qb.Scan(body) {
		return r.routeKey(qb.DB), qb.Semantics
	}
	var b dbBody
	json.Unmarshal(body, &b) // malformed bodies route on "" and get the worker's typed 400
	return r.routeKey([]byte(b.DB)), b.Semantics
}

// queryBodies recycles the scanner's unescape buffers.
var queryBodies = sync.Pool{New: func() any { return new(serve.QueryBody) }}

// readBody buffers the request body once so failover can replay it.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: serve.ReasonBadRequest, Detail: "body: " + err.Error(),
		})
		return nil, false
	}
	return body, true
}

func writeError(w http.ResponseWriter, status int, resp serve.ErrorResponse) {
	if resp.RetryAfterMS > 0 {
		secs := (resp.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	data, _ := json.Marshal(resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// candidates computes a request's failover sequence: the key's owner
// followed by up to FailoverMax distinct ring successors.
func (r *Router) candidates(key string) []string {
	return r.ring.Sequence(key, 1+r.cfg.FailoverMax)
}

// breakerReorder stably partitions a candidate sequence for one
// (key, semantics) pair: nodes whose breaker for that semantics is
// known open move to the back, so the request lands on a worker that
// will actually attempt it instead of burning a failover hop on a
// guaranteed breaker_open 503. Open-breaker nodes stay in the sequence
// as a last resort — stale breaker gossip must never shed a request on
// its own; if every candidate's breaker is open, the owner's own typed
// breaker_open refusal (with its Retry-After) reaches the client
// verbatim, exactly as before. Reports whether the primary changed,
// which is what the breaker_routed counter counts: verdicts are
// node-independent (the benchgate cluster section proves NP identity),
// so rerouting is pure accounting, never a semantic change.
func (r *Router) breakerReorder(seq []string, sem string) ([]string, bool) {
	if sem == "" || len(seq) < 2 {
		return seq, false
	}
	clear := make([]string, 0, len(seq))
	var blocked []string
	for _, name := range seq {
		if n := r.node(name); n != nil && n.breakerOpen(sem) {
			blocked = append(blocked, name)
		} else {
			clear = append(clear, name)
		}
	}
	if len(blocked) == 0 || len(clear) == 0 {
		return seq, false
	}
	return append(clear, blocked...), clear[0] != seq[0]
}

// attemptOutcome classifies one forwarded attempt.
type attemptOutcome int

const (
	attemptRelayed  attemptOutcome = iota // response relayed to the client
	attemptFailover                       // transport error / draining: try the next node
)

// tryNode forwards the buffered request to one worker. Any HTTP
// response except a worker-drain shed is relayed verbatim — including
// 4xx, 429, and breaker_open 503s, which carry their own Retry-After
// and must reach the client untouched. Only transport-level failures
// (connection refused/reset: the node is dead or partitioned) and
// worker 503 draining responses trigger failover: the request
// provably never started solving, so re-sending it to the ring
// successor is safe even though POST is not idempotent in general —
// and inference queries are pure anyway.
func (r *Router) tryNode(w http.ResponseWriter, req *http.Request, n *node, path string, body []byte) attemptOutcome {
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	out, ok := n.request(ctx, req.Method, path, body)
	if !ok {
		return attemptFailover
	}
	resp, err := r.client.Do(out)
	if err != nil {
		r.fail(n)
		return attemptFailover
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		r.fail(n)
		return attemptFailover
	}
	n.fails.Store(0)
	if resp.StatusCode == http.StatusServiceUnavailable {
		var er serve.ErrorResponse
		if json.Unmarshal(respBody, &er) == nil && er.Error == serve.ShedDraining {
			n.draining.Store(true)
			return attemptFailover
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
	return attemptRelayed
}

// forwardQuery routes one buffered JSON request (single query or
// batch) with bounded failover.
func (r *Router) forwardQuery(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key, sem := r.route(body)
	seq, rerouted := r.breakerReorder(r.candidates(key), sem)
	if rerouted {
		r.stats.breakerRouted.Add(1)
	}
	jh := splitmix64(uint64(r.cfg.Seed) ^ hashKey(key))

	failedOver := false
	for i, name := range seq {
		n := r.node(name)
		if n == nil {
			continue
		}
		if n.down.Load() && i+1 < len(seq) {
			// Known-dead node: skip straight to the successor (but if it
			// is the last candidate, try it anyway — a stale down mark
			// must not shed a servable request).
			if !failedOver {
				failedOver = true
				r.stats.failovers.Add(1)
			}
			continue
		}
		if i > 0 {
			time.Sleep(faults.FullJitter(jh, i-1))
		}
		if r.tryNode(w, req, n, req.URL.Path, body) == attemptRelayed {
			r.stats.forwarded.Add(1)
			if failedOver || i > 0 {
				r.stats.failoverSuccess.Add(1)
			}
			return
		}
		if !failedOver {
			failedOver = true
			r.stats.failovers.Add(1)
		}
	}
	r.stats.shedUnavailable.Add(1)
	writeError(w, http.StatusServiceUnavailable, serve.ErrorResponse{
		Error:        serve.ShedNodeUnavailable,
		RetryAfterMS: int64(r.cfg.ProbeInterval / time.Millisecond),
	})
}

// forwardStream routes an NDJSON model stream. Failover applies only
// while no response bytes have been relayed; once streaming begins, a
// worker loss terminates the stream with the typed node_lost record
// instead of a torn body — the models already emitted remain valid.
func (r *Router) forwardStream(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key, sem := r.route(body)
	seq, rerouted := r.breakerReorder(r.candidates(key), sem)
	if rerouted {
		r.stats.breakerRouted.Add(1)
	}
	jh := splitmix64(uint64(r.cfg.Seed) ^ hashKey(key))

	failedOver := false
	for i, name := range seq {
		n := r.node(name)
		if n == nil {
			continue
		}
		if n.down.Load() && i+1 < len(seq) {
			if !failedOver {
				failedOver = true
				r.stats.failovers.Add(1)
			}
			continue
		}
		if i > 0 {
			time.Sleep(faults.FullJitter(jh, i-1))
		}
		out, ok := n.request(req.Context(), req.Method, req.URL.Path, body)
		if !ok {
			continue
		}
		resp, err := r.client.Do(out) // no per-attempt timeout: streams run long
		if err != nil {
			r.fail(n)
			if !failedOver {
				failedOver = true
				r.stats.failovers.Add(1)
			}
			continue
		}
		n.fails.Store(0)
		if resp.StatusCode != http.StatusOK {
			// Typed refusal (shed, bad request): relay it; failover only
			// on drain sheds, mirroring forwardQuery.
			respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if rerr != nil {
				r.fail(n)
				if !failedOver {
					failedOver = true
					r.stats.failovers.Add(1)
				}
				continue
			}
			var er serve.ErrorResponse
			if resp.StatusCode == http.StatusServiceUnavailable &&
				json.Unmarshal(respBody, &er) == nil && er.Error == serve.ShedDraining {
				n.draining.Store(true)
				if !failedOver {
					failedOver = true
					r.stats.failovers.Add(1)
				}
				continue
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(respBody)
			r.stats.forwarded.Add(1)
			if failedOver || i > 0 {
				r.stats.failoverSuccess.Add(1)
			}
			return
		}
		r.relayStream(w, resp, n)
		r.stats.forwarded.Add(1)
		if failedOver || i > 0 {
			r.stats.failoverSuccess.Add(1)
		}
		return
	}
	r.stats.shedUnavailable.Add(1)
	writeError(w, http.StatusServiceUnavailable, serve.ErrorResponse{
		Error:        serve.ShedNodeUnavailable,
		RetryAfterMS: int64(r.cfg.ProbeInterval / time.Millisecond),
	})
}

// relayStream copies NDJSON lines through, watching for the worker's
// terminal record; if the connection tears before one arrives, the
// router appends its own typed terminal so the client's decoder never
// sees a truncated stream.
func (r *Router) relayStream(w http.ResponseWriter, resp *http.Response, n *node) {
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	sawDone := false
	count := 0
	dec := json.NewDecoder(resp.Body)
	enc := json.NewEncoder(w)
	for {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			if err != io.EOF {
				r.fail(n)
			}
			break
		}
		var probe serve.StreamLine
		if json.Unmarshal(line, &probe) == nil {
			if probe.Done {
				sawDone = true
			} else {
				count++
			}
		}
		if err := enc.Encode(line); err != nil {
			return // client went away; nothing to repair
		}
		if fl != nil {
			fl.Flush()
		}
	}
	if !sawDone {
		r.stats.streamNodeLost.Add(1)
		enc.Encode(serve.StreamDoneRow{
			Done:  true,
			Cause: serve.StreamCauseNodeLost,
			Count: count,
		})
		if fl != nil {
			fl.Flush()
		}
	}
}

// forwardAny relays a GET (e.g. /v1/semantics) to any healthy node.
func (r *Router) forwardAny(w http.ResponseWriter, req *http.Request) {
	for _, name := range r.ring.Members() {
		n := r.node(name)
		if n == nil || n.down.Load() {
			continue
		}
		if r.tryNode(w, req, n, req.URL.Path, nil) == attemptRelayed {
			return
		}
	}
	r.stats.shedUnavailable.Add(1)
	writeError(w, http.StatusServiceUnavailable, serve.ErrorResponse{
		Error:        serve.ShedNodeUnavailable,
		RetryAfterMS: int64(r.cfg.ProbeInterval / time.Millisecond),
	})
}

// DrainReport summarizes one graceful node departure.
type DrainReport struct {
	Node      string         `json:"node"`
	Artifacts int            `json:"artifacts"` // exported artifact count
	Verdicts  int            `json:"verdicts"`  // exported verdict count
	Imported  map[string]int `json:"imported"`  // successor → artifacts+verdicts accepted
}

// DrainNode gracefully removes a worker: export its warm state, hand
// each slice to the ring successor that will own it after the flip,
// and only then remove the node from the ring — so at every moment a
// key's owner either still has the state or has already received it.
// The worker itself keeps running (draining or not) until the
// operator stops it; the router just stops sending it traffic.
func (r *Router) DrainNode(ctx context.Context, baseURL string) (DrainReport, error) {
	name := strings.TrimSuffix(baseURL, "/")
	rep := DrainReport{Node: name, Imported: map[string]int{}}
	n := r.node(name)
	if n == nil {
		return rep, fmt.Errorf("cluster: unknown node %q", name)
	}
	if r.ring.Size() < 2 {
		// Last node: nothing to hand off to; just drop it.
		r.RemoveNode(name)
		r.gossipAll(ctx)
		return rep, nil
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/v1/handoff/export", nil)
	if err != nil {
		return rep, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		// Dead worker: no state to save; fall through to the ring flip.
		r.RemoveNode(name)
		r.gossipAll(ctx)
		return rep, nil
	}
	var h session.Handoff
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&h)
	resp.Body.Close()
	if decErr != nil || resp.StatusCode != http.StatusOK {
		r.RemoveNode(name)
		r.gossipAll(ctx)
		return rep, nil
	}
	rep.Artifacts = len(h.Artifacts)
	rep.Verdicts = len(h.Verdicts)

	// Partition the export by post-removal owner: the first node in
	// each key's failover sequence that is not the departing one is
	// exactly who owns the key once the ring flips. Down-marked nodes
	// are skipped — requests for their keys fail over past them, so
	// the state lands where the traffic actually goes. One pass fixes
	// every key's owner; each distinct owner then gets its slice.
	owner := map[string]string{}
	var succs []string
	h.Each(func(key string) {
		if _, ok := owner[key]; ok {
			return
		}
		succ := ""
		for _, cand := range r.ring.Sequence(key, r.ring.Size()) {
			if cand == name {
				continue
			}
			if sn := r.node(cand); sn == nil || sn.down.Load() {
				continue
			}
			succ = cand
			break
		}
		owner[key] = succ
		if succ != "" && !slices.Contains(succs, succ) {
			succs = append(succs, succ)
		}
	})

	for _, succ := range succs {
		slice := h.Keep(func(raw string) bool { return owner[raw] == succ })
		sn := r.node(succ)
		if sn == nil {
			continue
		}
		payload, err := json.Marshal(slice)
		if err != nil {
			continue
		}
		ireq, err := http.NewRequestWithContext(ctx, http.MethodPost, sn.url+"/v1/handoff/import", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		ireq.Header.Set("Content-Type", "application/json")
		iresp, err := r.client.Do(ireq)
		if err != nil {
			r.fail(sn)
			continue // the successor recomputes what it never received
		}
		var ir serve.HandoffImportResponse
		json.NewDecoder(io.LimitReader(iresp.Body, 1<<16)).Decode(&ir)
		iresp.Body.Close()
		rep.Imported[succ] = ir.Artifacts + ir.Verdicts
		r.stats.handoffArts.Add(int64(ir.Artifacts))
		r.stats.handoffVerds.Add(int64(ir.Verdicts))
	}

	r.RemoveNode(name)
	r.gossipAll(ctx)
	return rep, nil
}

// handleDrain is the HTTP form of DrainNode: POST /v1/cluster/drain?node=<url>.
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	target := req.URL.Query().Get("node")
	if target == "" {
		writeError(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: serve.ReasonBadRequest, Detail: "missing ?node=<base url>",
		})
		return
	}
	rep, err := r.DrainNode(req.Context(), target)
	if err != nil {
		writeError(w, http.StatusNotFound, serve.ErrorResponse{
			Error: serve.ReasonBadRequest, Detail: err.Error(),
		})
		return
	}
	data, _ := json.Marshal(rep)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// NodeHealth is one worker's entry in the router /healthz document.
type NodeHealth struct {
	Up       bool `json:"up"`
	Draining bool `json:"draining"`
	Fails    int  `json:"fails"`
	// Probed reports firsthand probe contact; false means any health
	// shown is secondhand gossip (or the pre-probe default).
	Probed bool `json:"probed"`
	// OpenBreakers lists the semantics whose breaker is open on this
	// worker — the input to breaker-aware routing.
	OpenBreakers []string `json:"open_breakers,omitempty"`
}

// RouterHealth is the router's /healthz document.
type RouterHealth struct {
	Status string                `json:"status"` // "ok" | "degraded" | "down"
	Epoch  uint64                `json:"epoch"`  // membership epoch
	Peers  []string              `json:"peers,omitempty"`
	Nodes  map[string]NodeHealth `json:"nodes"`
	Stats  map[string]int64      `json:"stats"`
}

func (r *Router) health() RouterHealth {
	h := RouterHealth{Epoch: r.epoch.Load(), Peers: r.Peers(), Nodes: map[string]NodeHealth{}, Stats: map[string]int64{
		"forwarded":             r.stats.forwarded.Load(),
		"failovers":             r.stats.failovers.Load(),
		"failover_success":      r.stats.failoverSuccess.Load(),
		"shed_node_unavailable": r.stats.shedUnavailable.Load(),
		"stream_node_lost":      r.stats.streamNodeLost.Load(),
		"probes":                r.stats.probes.Load(),
		"key_cache_hits":        r.stats.keyHits.Load(),
		"key_cache_misses":      r.stats.keyMisses.Load(),
		"handoff_artifacts":     r.stats.handoffArts.Load(),
		"handoff_verdicts":      r.stats.handoffVerds.Load(),
		"breaker_routed":        r.stats.breakerRouted.Load(),
		"gossip_sent":           r.stats.gossipSent.Load(),
		"gossip_received":       r.stats.gossipRecv.Load(),
		"gossip_adopted":        r.stats.gossipAdopted.Load(),
		"joins":                 r.stats.joins.Load(),
		"join_artifacts":        r.stats.joinArts.Load(),
		"join_verdicts":         r.stats.joinVerds.Load(),
	}}
	up := 0
	r.nodeMu.RLock()
	for name, n := range r.nodes {
		nh := NodeHealth{
			Up: !n.down.Load(), Draining: n.draining.Load(),
			Fails: int(n.fails.Load()), Probed: n.probed.Load(),
			OpenBreakers: n.openBreakerList(),
		}
		if nh.Up {
			up++
		}
		h.Nodes[name] = nh
	}
	total := len(r.nodes)
	r.nodeMu.RUnlock()
	switch {
	case up == total && total > 0:
		h.Status = "ok"
	case up > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	return h
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	data, _ := json.Marshal(r.health())
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := r.health()
	status := http.StatusOK
	ready := true
	if h.Status == "down" {
		status, ready = http.StatusServiceUnavailable, false
	}
	data, _ := json.Marshal(struct {
		Ready bool `json:"ready"`
	}{ready})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}
