package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first. Spans are recorded from the
// benchmark's own code around the calls into each layer: the client
// around the whole request, the router around Router.Handler, the
// worker around serve.Server.Handler (inside the in-process transport
// when a router is in front).
const (
	spanClient = "client"
	spanRouter = "router"
	spanWorker = "worker"
)

type reqKey struct{}

// withReq tags a request context with the request's sample index; all
// spans of the request share it.
func withReq(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

type span struct {
	Req   int    `json:"req"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on. Spans of contexts that carry
// no request index (the router's health probes) are dropped.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) span(ctx context.Context, layer string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	id, ok := ctx.Value(reqKey{}).(int)
	if !ok {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: id, Layer: layer, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// byRequest groups span durations by request and layer.
func (t *tracer) byRequest() map[int]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Req] = m
		}
		m[s.Layer] += time.Duration(s.End - s.Start)
	}
	return out
}

// write saves the spans, one JSON object a line, after the run.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time for one request: its span
// minus the span of the layer it calls. Layers nest strictly (client ⊃
// router ⊃ worker) and each is entered once per request, so the child
// span covers exactly its own duration of the parent.
func selfTimes(layers map[string]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	order := []string{spanClient, spanRouter, spanWorker}
	for i, l := range order {
		d, ok := layers[l]
		if !ok {
			continue
		}
		for _, child := range order[i+1:] {
			if c, ok := layers[child]; ok {
				d -= c
				break
			}
		}
		out[l] = d
	}
	return out
}
