package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// recorder is a reusable buffered ResponseWriter. It notes when the
// handler wrote its first body byte.
type recorder struct {
	hdr       http.Header
	code      int
	buf       bytes.Buffer
	firstByte time.Time
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.buf.Reset()
	r.firstByte = time.Time{}
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	if r.firstByte.IsZero() {
		r.firstByte = time.Now()
	}
	return r.buf.Write(p)
}

// inproc is the router's RoundTripper: it dispatches each forwarded
// request to the worker handler named by the URL host, in the calling
// goroutine, so the router's real forwarding code runs without the
// kernel loopback. Bodies are buffered, which suits the router's query
// path (it reads whole worker responses); streams do not go through the
// router in this benchmark.
type inproc struct {
	workers map[string]http.Handler
	tr      *tracer
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.workers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inproc: no worker %q", req.URL.Host)
	}
	sreq := req
	if req.Body == nil {
		sreq = req.Clone(req.Context())
		sreq.Body = http.NoBody
	}
	rec := newRecorder()
	start := time.Now()
	h.ServeHTTP(rec, sreq)
	t.tr.span(req.Context(), spanWorker, start, time.Now())
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.hdr,
		Body:          io.NopCloser(&rec.buf),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}

// tracedHandler wraps a handler with a span of the given layer, for the
// front of the path the client calls.
func tracedHandler(h http.Handler, tr *tracer, layer string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.span(r.Context(), layer, start, time.Now())
	})
}

// pipeWriter is the ResponseWriter of a streamed request: every Write
// goes straight into a pipe the client reads while the handler is still
// running, so the client sees each NDJSON line as it is flushed.
type pipeWriter struct {
	hdr  http.Header
	code int
	pw   *io.PipeWriter
}

func (w *pipeWriter) Header() http.Header { return w.hdr }

func (w *pipeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.pw.Write(p)
}

// Flush satisfies http.Flusher, so the stream handler takes its flushing
// path; every Write already reached the pipe.
func (w *pipeWriter) Flush() {}

// startStream runs h on req in its own goroutine and returns the read
// side of the response. The caller must read the reader to EOF or close
// it, then call wait, which returns the status code once the handler
// has returned.
func startStream(ctx context.Context, h http.Handler, req *http.Request, tr *tracer) (body *io.PipeReader, wait func() int) {
	pr, pw := io.Pipe()
	w := &pipeWriter{hdr: http.Header{}, pw: pw}
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		h.ServeHTTP(w, req)
		tr.span(ctx, spanWorker, start, time.Now())
		pw.Close()
	}()
	return pr, func() int {
		<-done
		return w.code
	}
}
