package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opHeader carries the op id from a client to the span wrapper. Clients
// send it on every request, traced or not, so both runs move the same
// bytes.
const opHeader = "X-Perfbench-Op"

// span is one timed interval. Spans of one op share Op; a client span
// has ID == Op and no parent. Body-read and write spans sum the time
// spent inside the body's Read calls and the writer's Write and Flush
// calls, so their Start is the first call and Dur the summed time.
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Span names.
const (
	spanClient   = "client"
	spanHandler  = "engine.http"
	spanBodyRead = "engine.http.body_read"
	spanWrite    = "engine.http.write"
)

// tracer keeps spans in memory while on; they are written out when the
// run ends. It also hands out the op ids, traced or not.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newOp returns a fresh op id.
func (t *tracer) newOp() uint64 { return t.ids.Add(1) }

func (t *tracer) enabled() bool { return t.on.Load() }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// client records the root span of one op.
func (t *tracer) client(op uint64, start time.Time, d time.Duration) {
	if t.enabled() {
		t.add(span{Op: op, ID: op, Name: spanClient, Start: t.since(start), Dur: int64(d)})
	}
}

// taken returns the recorded spans and forgets them.
func (t *tracer) taken() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// wrap times h and the request body reads and response writes it makes.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		body := &timedBody{rc: r.Body}
		r.Body = body
		tw := &timedWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(tw, r)
		d := time.Since(start)
		id := t.ids.Add(1)
		t.add(
			span{Op: op, ID: id, Parent: op, Name: spanHandler, Route: r.URL.Path, Start: t.since(start), Dur: int64(d)},
			span{Op: op, ID: t.ids.Add(1), Parent: id, Name: spanBodyRead, Route: r.URL.Path, Start: t.since(body.first), Dur: int64(body.dur), Bytes: body.n},
			span{Op: op, ID: t.ids.Add(1), Parent: id, Name: spanWrite, Route: r.URL.Path, Start: t.since(tw.first), Dur: int64(tw.dur), Bytes: tw.n},
		)
	})
}

// timedBody sums the time spent in Read.
type timedBody struct {
	rc    io.ReadCloser
	first time.Time
	dur   time.Duration
	n     int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	if b.first.IsZero() {
		b.first = t0
	}
	n, err := b.rc.Read(p)
	b.dur += time.Since(t0)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error { return b.rc.Close() }

// timedWriter sums the time spent in Write and Flush.
type timedWriter struct {
	http.ResponseWriter
	first time.Time
	dur   time.Duration
	n     int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	if w.first.IsZero() {
		w.first = t0
	}
	n, err := w.ResponseWriter.Write(p)
	w.dur += time.Since(t0)
	w.n += int64(n)
	return n, err
}

func (w *timedWriter) Flush() {
	t0 := time.Now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.dur += time.Since(t0)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// maxSpansWritten caps the span file (about 10 MB); the metrics use every
// span recorded.
const maxSpansWritten = 100_000

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opRoundTripper stamps every request of one op with its id; campaign
// ops issue their requests through cluster.Run, which takes a client.
type opRoundTripper struct {
	base http.RoundTripper
	op   string
}

func (o opRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(opHeader, o.op)
	return o.base.RoundTrip(r)
}
