// Package obs is the repo's zero-dependency observability core: a
// metric registry of atomic counters, gauges, and fixed-bucket
// histograms, rendered in the Prometheus text exposition format by
// WriteText/Handler.
//
// Design constraints, in order:
//
//   - The hot path must be allocation-free. Counter.Inc, Gauge.Set,
//     and Histogram.Observe touch only pre-resolved atomics — callers
//     resolve series once at construction time (engine.New, NewServer,
//     ...) and hold *Counter/*Gauge/*Histogram pointers, never going
//     through the registry's map per event. TestObserveZeroAlloc pins
//     this with testing.AllocsPerRun.
//   - Nil means off. Every method is safe on a nil receiver (registry
//     and metric alike) and does nothing, so library users who pass no
//     registry pay one predictable nil-check per event and the
//     instrumented packages carry no conditional plumbing.
//   - No wire protocol beyond the text format, no dependencies. The
//     registry is not a Prometheus client; it is the minimal surface
//     the serving layer needs to expose what it already counts.
//
// Metric and label names follow the Prometheus conventions: snake_case
// with an lpdag_ prefix, base units (seconds, bytes), _total suffix on
// counters. Getter methods (Counter/Gauge/Histogram/...) are
// get-or-create and panic on redefinition with a different type, help
// string, or label-key set — a misspelled metric should fail loudly in
// tests, not fork silently into two families.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Standard bucket layouts. Latency buckets cover the serving range
// (100µs..10s); span buckets cover the analysis phases, which sit in
// the sub-microsecond..millisecond range at steady state (AnalyzePoint
// is ~0.5µs for a warm set); iteration buckets are powers of two up to
// the fixed-point iteration cap's practical range.
var (
	// LatencyBuckets suits HTTP requests and engine jobs (seconds).
	LatencyBuckets = []float64{
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// SpanBuckets suits intra-analysis phase timings (seconds).
	SpanBuckets = []float64{
		1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5, 1e-4, 1e-3, 1e-2, 0.1,
	}
	// IterationBuckets suits fixed-point iteration counts.
	IterationBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use and on a nil receiver (a nil
// registry is the no-op registry).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus all label combinations
// seen so far.
type family struct {
	name      string
	help      string
	typ       metricType
	labelKeys []string
	buckets   []float64 // histograms only
	series    map[string]*series
	order     []string // insertion-independent: sorted at scrape
}

// series is one (name, label values) time series. The payload pointer
// matching the family type (c/g/h) is set at creation and immutable;
// fn is atomic because func-backed series may be re-registered (a new
// campaign re-pointing a gauge) while a scrape reads them.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
	fn        atomic.Pointer[func() float64] // func-backed counter or gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for name and the given label pairs
// (alternating key, value), creating it if needed.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, labelPairs, nil).c
}

// Gauge returns the gauge for name and the given label pairs.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labelPairs, nil).g
}

// Histogram returns the histogram for name with the given upper bucket
// bounds (strictly increasing; +Inf is implicit). The bounds are fixed
// at creation; later calls for the same name must pass equal bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
		}
	}
	return r.lookup(name, help, typeHistogram, buckets, labelPairs, nil).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. Use it to re-export counters another subsystem already
// maintains (e.g. the analysis cache) without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, typeCounter, nil, labelPairs, fn)
}

// GaugeFunc registers a gauge read from fn at scrape time (queue
// depths, map sizes, ratios — state that already lives elsewhere).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, typeGauge, nil, labelPairs, fn)
}

// lookup is the shared get-or-create: it validates names, enforces
// family metadata consistency, and returns the series for the label
// values. The series payload (counter/gauge/histogram, or fn for
// func-backed series) is created or updated under r.mu so a concurrent
// scrape never sees a half-initialised series.
func (r *Registry) lookup(name, help string, typ metricType, buckets []float64, labelPairs []string, fn func() float64) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label pair list", name))
	}
	keys := make([]string, 0, len(labelPairs)/2)
	vals := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		if !validName(labelPairs[i]) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, labelPairs[i]))
		}
		keys = append(keys, labelPairs[i])
		vals = append(vals, labelPairs[i+1])
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:      name,
			help:      help,
			typ:       typ,
			labelKeys: keys,
			buckets:   buckets,
			series:    make(map[string]*series),
		}
		r.families[name] = f
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s redefined as %s (was %s)", name, typ, f.typ))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %s redefined with different help", name))
		}
		if !slices.Equal(f.labelKeys, keys) {
			panic(fmt.Sprintf("obs: metric %s redefined with label keys %v (was %v)", name, keys, f.labelKeys))
		}
		if typ == typeHistogram && !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: histogram %s redefined with different buckets", name))
		}
	}
	key := strings.Join(vals, "\xff")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: vals}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = newHistogram(buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	if fn != nil {
		s.fn.Store(&fn)
	}
	return s
}

// famView is a scrape-time copy of one family: its metadata plus the
// series list frozen and sorted under the registry lock. Everything a
// series points to (label slices, payload pointers) is immutable after
// the creating lookup releases r.mu, so reading the view lock-free is
// safe even while new series are being registered.
type famView struct {
	f      *family
	series []*series
}

// snapshot returns the families sorted by name, each with its series
// copied out and sorted by label values — the stable scrape order.
// The per-family series map and order slice are only touched here and
// in lookup, both under r.mu.
func (r *Registry) snapshot() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	views := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]*series, 0, len(f.order))
		for _, k := range f.order {
			ss = append(ss, f.series[k])
		}
		sort.Slice(ss, func(i, j int) bool {
			a, b := ss[i].labelVals, ss[j].labelVals
			for x := range a {
				if a[x] != b[x] {
					return a[x] < b[x]
				}
			}
			return false
		})
		views = append(views, famView{f: f, series: ss})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].f.name < views[j].f.name })
	return views
}

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are nil-safe and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits in
// one atomic word. The zero value is ready; methods are nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free and allocation-free: one atomic add on the matching bucket
// and a CAS loop on the float64 sum. Bucket bounds are immutable after
// construction.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:  append([]float64(nil), upper...),
		counts: make([]atomic.Uint64, len(upper)+1),
	}
}

// Observe records one value. With the standard bucket layouts the
// linear scan beats a binary search: the slices are short and the scan
// is branch-predictable.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Since observes the seconds elapsed since t0 — the span-closing
// helper: t0 := time.Now(); defer h.Since(t0).
func (h *Histogram) Since(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
