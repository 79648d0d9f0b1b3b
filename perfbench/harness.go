package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"disjunct/internal/cluster"
	"disjunct/internal/serve"
)

// serveConfig is the production configuration under test: planner on
// (which implies sessions), every other field the benchmark depends on
// pinned rather than derived from GOMAXPROCS.
func serveConfig() serve.Config {
	return serve.Config{
		MaxConcurrent:     2,
		QueueDepth:        16,
		DrainTimeout:      5 * time.Second,
		RetryMax:          2,
		Breaker:           serve.BreakerConfig{Threshold: 5, Cooldown: time.Second},
		Sessions:          true,
		SessionCacheBytes: 4 << 20, // small enough that cold-mixed's warm-up fills it

		SessionMaxSessions:   64,
		SessionMaxQueries:    512,
		SessionBatchWindow:   2 * time.Millisecond,
		Planner:              true,
		PlannerBruteAtoms:    8,
		PlannerExpensiveNP:   8,
		PlannerShedOccupancy: 0.5,
		BatchMaxQueries:      256,
	}
}

// routerConfig pins the router's defaults; only the transport is the
// benchmark's own.
func routerConfig(seed int64, t http.RoundTripper) cluster.RouterConfig {
	return cluster.RouterConfig{
		Replicas:       cluster.DefaultReplicas,
		FailoverMax:    2,
		ProbeInterval:  250 * time.Millisecond,
		FailThreshold:  3,
		Seed:           seed,
		GossipInterval: 500 * time.Millisecond,
		KeyCache:       4096,
		Transport:      t,
		RequestTimeout: 30 * time.Second,
	}
}

// system is one constructed server set and the handler the client
// calls.
type system struct {
	front   http.Handler
	servers []*serve.Server
	router  *cluster.Router
}

// build constructs the system a workload drives: one server for
// cold-mixed and stream-minimal; two workers behind a router, joined by
// the in-process transport, for hot-routed.
func build(workload string, seed int64, tr *tracer) *system {
	sys := &system{}
	workers := 1
	if workload == "hot-routed" {
		workers = 2
	}
	hosts := map[string]http.Handler{}
	var urls []string
	for i := 0; i < workers; i++ {
		s := serve.New(serveConfig())
		sys.servers = append(sys.servers, s)
		host := fmt.Sprintf("w%d.inproc", i)
		hosts[host] = s.Handler()
		urls = append(urls, "http://"+host)
	}
	switch workload {
	case "hot-routed":
		sys.router = cluster.NewRouter(routerConfig(seed, &inproc{workers: hosts, tr: tr}), urls)
		sys.front = tracedHandler(sys.router.Handler(), tr, spanRouter)
	case "stream-minimal":
		sys.front = sys.servers[0].Handler() // the stream client records the worker span
	default:
		sys.front = tracedHandler(sys.servers[0].Handler(), tr, spanWorker)
	}
	return sys
}

// close stops the router's probe loop and drains every server.
func (s *system) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Drain(context.Background())
	}
}

// counters flattens the /healthz counters of every server (summed) and
// of the router into one map: "stats.*", "sessions.*", "planner.*",
// "router.*".
func (s *system) counters() (map[string]int64, error) {
	out := map[string]int64{}
	get := func(h http.Handler, v any) error {
		rec := newRecorder()
		h.ServeHTTP(rec, httpGet("/healthz"))
		if rec.code != http.StatusOK {
			return fmt.Errorf("healthz: status %d", rec.code)
		}
		return json.Unmarshal(rec.buf.Bytes(), v)
	}
	add := func(prefix string, m map[string]int64) {
		for k, v := range m {
			out[prefix+k] += v
		}
	}
	for _, srv := range s.servers {
		var h serve.Health
		if err := get(srv.Handler(), &h); err != nil {
			return nil, err
		}
		add("stats.", h.Stats)
		add("sessions.", h.Sessions)
		add("planner.", h.Planner)
	}
	if s.router != nil {
		var h cluster.RouterHealth
		if err := get(s.router.Handler(), &h); err != nil {
			return nil, err
		}
		add("router.", h.Stats)
	}
	return out, nil
}

func httpGet(path string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, "http://bench"+path, http.NoBody)
	return req
}

// sample is the client's record of one request.
type sample struct {
	in     int // index into inputs.distinct
	slice  int
	traced bool
	lat    time.Duration // request start to full response (streams: terminal record)
	ttfm   time.Duration // to the first body byte (streams: first model line)
	status int
	err    string // why the request failed; set only on failure

	// query responses
	holds    bool
	path     uint8 // index into pathNames
	queueMS  float64
	solveMS  float64 // streams: the terminal record's total_ms
	counters serve.CountersJSON

	// streams
	models int
	digest uint64
}

// client is the single closed-loop client: it sends one request, waits
// for the whole response, and only then sends the next.
type client struct {
	front http.Handler
	tr    *tracer
	rec   *recorder
}

func (c *client) send(in *input, id int, traced bool) sample {
	ctx := context.Background()
	if traced {
		ctx = withReq(ctx, id)
	}
	if in.kind == "stream" {
		return c.stream(ctx, in)
	}
	s := sample{}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://bench"+in.endpoint, bytes.NewReader(in.body))
	if err != nil {
		s.err = err.Error()
		return s
	}
	c.rec.reset()
	c.front.ServeHTTP(c.rec, req)
	end := time.Now()
	c.tr.span(ctx, spanClient, start, end)
	s.lat = end.Sub(start)
	s.ttfm = c.rec.firstByte.Sub(start)
	s.status = c.rec.code
	if s.status != http.StatusOK {
		var er serve.ErrorResponse
		json.Unmarshal(c.rec.buf.Bytes(), &er) // best effort: the status already marks the failure
		s.err = er.Error
		return s
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(c.rec.buf.Bytes(), &qr); err != nil {
		s.err = "decode: " + err.Error()
		return s
	}
	s.holds, s.path = qr.Holds, pathIndex(qr.Path)
	s.queueMS, s.solveMS, s.counters = qr.QueueMS, qr.SolveMS, qr.Counters
	if qr.Incomplete {
		s.err = "incomplete: " + qr.CauseCode
	}
	return s
}

// stream reads an NDJSON model stream while the handler writes it.
func (c *client) stream(ctx context.Context, in *input) sample {
	s := sample{}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://bench"+in.endpoint, bytes.NewReader(in.body))
	if err != nil {
		s.err = err.Error()
		return s
	}
	body, wait := startStream(ctx, c.front, req, c.tr)
	br := bufio.NewReader(body)
	var keys []string
	var end time.Time
	var cause string
	for {
		line, rerr := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 && s.err == "" {
			var l struct {
				serve.StreamLine
				TotalMS float64 `json:"total_ms"`
			}
			if err := json.Unmarshal(line, &l); err != nil {
				s.err = "decode: " + err.Error()
			} else if l.Done {
				end = now
				cause, s.counters, s.solveMS = l.Cause, l.Counters, l.TotalMS
				if l.Count != len(keys) {
					s.err = fmt.Sprintf("terminal count %d, %d rows", l.Count, len(keys))
				}
			} else if l.Model != nil {
				if len(keys) == 0 {
					s.ttfm = now.Sub(start)
				}
				keys = append(keys, strings.Join(l.Model, ","))
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				s.err = "read: " + rerr.Error()
			}
			break
		}
	}
	body.Close()
	s.status = wait()
	if end.IsZero() {
		end = time.Now()
		if s.err == "" {
			s.err = "no terminal record"
		}
	}
	c.tr.span(ctx, spanClient, start, end)
	s.lat = end.Sub(start)
	s.models = len(keys)
	s.digest = digest(keys)
	switch {
	case s.status != http.StatusOK:
		s.err = fmt.Sprintf("status %d", s.status)
	case s.err == "" && cause != serve.StreamCauseComplete:
		s.err = "cause " + cause
	}
	return s
}

// warmup sends every warm-up input once, in order.
func warmup(c *client, in *inputs) {
	for _, idx := range in.warm {
		c.send(&in.distinct[idx], -1, false)
	}
}

// slices is the number of equal slices the timed phase is cut into; the
// traced run alternates untraced (even) and traced (odd) slices.
const slices = 20

// phase is the record of one timed phase.
type phase struct {
	samples  []sample
	sliceDur time.Duration
	elapsed  time.Duration
}

// runPhase drives the closed loop for the given duration. With trace
// set, odd slices record spans.
func runPhase(c *client, in *inputs, dur time.Duration, trace bool) phase {
	p := phase{sliceDur: dur / slices}
	p.samples = make([]sample, 0, 4096)
	start := time.Now()
	for _, idx := range in.timed {
		el := time.Since(start)
		if el >= dur {
			break
		}
		k := int(el / p.sliceDur)
		traced := trace && k%2 == 1
		c.tr.on.Store(traced)
		s := c.send(&in.distinct[idx], len(p.samples), traced)
		s.in, s.slice, s.traced = idx, k, traced
		p.samples = append(p.samples, s)
	}
	c.tr.on.Store(false)
	p.elapsed = time.Since(start)
	return p
}
