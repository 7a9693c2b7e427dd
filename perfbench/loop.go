package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opClass groups ops for the per-class latencies of session-durable.
type opClass uint8

const (
	classOther opClass = iota // analyze batches, campaigns, session create/delete
	classWrite                // committed session writes: edits, repair apply
	classRead                 // session reads: report, admit, sensitivity, repair query
)

// sample is one finished op.
type sample struct {
	ms     float64
	at     time.Duration // completion, since the window started
	class  opClass
	repair bool
	ok     bool
}

// recorder collects one client's ops; each client owns its recorder.
type recorder struct {
	start   time.Time
	samples []sample
}

func (r *recorder) add(d time.Duration, class opClass, repair, ok bool) {
	r.samples = append(r.samples, sample{ms: float64(d) / 1e6, at: time.Since(r.start), class: class, repair: repair, ok: ok})
}

// client is one closed-loop caller: step performs one op and records it.
// An op that fails (non-2xx, transport error, wrong output) is recorded
// as failed; step returns an error only when the benchmark itself cannot
// go on.
type client interface {
	step(ctx context.Context, rec *recorder) error
}

// window is the outcome of one measured interval.
type window struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration // process user+sys time
	// marks[k] is the process CPU time and the host's steal time since
	// the window started, taken at the end of its k-th slice.
	marks []mark
	// steals is the host's steal time since the window started, sampled
	// every stealTick from the start to after the last op ended.
	steals []stealMark
}

// stealMark is the host's steal time at a moment of a window.
type stealMark struct{ at, steal time.Duration }

type mark struct{ cpu, steal time.Duration }

// stealTick is how often a window samples the host's steal time for
// unstolen; /proc/stat counts steal in 10 ms ticks.
const stealTick = 10 * time.Millisecond

// unstolen reports whether the host's steal time stood still from the
// last sample before s started to the first sample after it ended: the
// hypervisor took no CPU away from the VM while s ran. Without a steal
// timeline every op counts as unstolen.
func (w window) unstolen(s sample) bool {
	if len(w.steals) == 0 {
		return true
	}
	start, end := s.at-time.Duration(s.ms*1e6), s.at
	i := max(0, sort.Search(len(w.steals), func(i int) bool { return w.steals[i].at > start })-1)
	j := sort.Search(len(w.steals), func(i int) bool { return w.steals[i].at >= end })
	if j == len(w.steals) {
		return false
	}
	return w.steals[j].steal == w.steals[i].steal
}

// add appends another window's ops and time to w (its slices are not
// kept).
func (w *window) add(o window) {
	w.samples = append(w.samples, o.samples...)
	w.wall += o.wall
	w.cpu += o.cpu
}

// sliceLen is the length of the slices a window is cut into.
const sliceLen = time.Second

// stealShare bounds a clean slice: the hypervisor took at most this share
// of the VM's CPU time away from it.
const stealShare = 0.10

// slice is one sliceLen of a window.
type slice struct {
	ops             int
	cpu, steal, dur time.Duration
	ms              []float64 // latencies of the unstolen ops completed in it
}

// slices cuts the window into whole sliceLen slices (a trailing partial
// slice is dropped).
func (w window) slices() []slice {
	out := make([]slice, max(0, len(w.marks)-1))
	for k := range out {
		out[k].cpu = w.marks[k+1].cpu - w.marks[k].cpu
		out[k].steal = w.marks[k+1].steal - w.marks[k].steal
		out[k].dur = sliceLen
	}
	for _, s := range w.samples {
		if k := int(s.at / sliceLen); k < len(out) {
			out[k].ops++
			if w.unstolen(s) {
				out[k].ms = append(out[k].ms, s.ms)
			}
		}
	}
	return out
}

// cleanSlices returns the slices in which the host kept its hands off the
// VM, and how many slices there were. On a shared host the hypervisor
// deschedules the VM for seconds at a time; ops in those seconds measure
// the neighbours, not the program. A slice is clean when its steal time
// is at most stealShare of the VM's CPU time, or at most the median
// slice's, so that at least half the slices count even when the host
// steals throughout. A window shorter than four slices counts whole.
func (w window) cleanSlices() ([]slice, int) {
	all := w.slices()
	if len(all) < 4 {
		return []slice{{ops: len(w.samples), cpu: w.cpu, dur: w.wall,
			ms: latencies(w.samples, w.unstolen)}}, len(all)
	}
	steals := make([]float64, len(all))
	for i, s := range all {
		steals[i] = float64(s.steal)
	}
	limit := max(time.Duration(median(steals)), time.Duration(stealShare*float64(runtime.NumCPU())*float64(sliceLen)))
	var clean []slice
	for _, s := range all {
		if s.steal <= limit {
			clean = append(clean, s)
		}
	}
	return clean, len(all)
}

// sliceMean is the interquartile mean of f over ss (the mean of the
// middle half; all of ss when it has fewer than four). Like a median it
// keeps a burst of interference out of the result, and unlike a median of
// per-slice op counts it is not quantised.
func sliceMean(ss []slice, f func(slice) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	sort.Float64s(xs)
	if len(xs) >= 4 {
		xs = xs[len(xs)/4 : len(xs)-len(xs)/4]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// tailSamples is how many latencies must lie beyond a run's p99.
const tailSamples = 10

// groupOps is the fewest latencies a group of slices holds, so that its
// p99 has tailSamples beyond it.
const groupOps = tailSamples * 100

// latencyGroups cuts the latencies of ss, in order, into groups of
// consecutive slices holding at least groupOps each; a short remainder
// joins the last group. A window with fewer than groupOps latencies is
// one group.
func latencyGroups(ss []slice) [][]float64 {
	var groups [][]float64
	var xs []float64
	for _, s := range ss {
		xs = append(xs, s.ms...)
		if len(xs) >= groupOps {
			groups = append(groups, xs)
			xs = nil
		}
	}
	switch {
	case len(groups) == 0:
		groups = [][]float64{xs}
	case len(xs) > 0:
		groups[len(groups)-1] = append(groups[len(groups)-1], xs...)
	}
	return groups
}

// slicePercentile is the median over latencyGroups(ss) of each group's
// q-quantile latency. A pooled p99 is the worst one per cent of the
// run's ops, which a single second of host interference can fill; the
// median of the groups' p99s moves only when most groups do.
func slicePercentile(ss []slice, q float64) float64 {
	groups := latencyGroups(ss)
	ps := make([]float64, len(groups))
	for i, g := range groups {
		ps[i] = percentile(g, q)
	}
	return median(ps)
}

// stealTime is the host's steal time over all CPUs so far (the eighth
// field of /proc/stat's cpu line, in USER_HZ ticks); 0 where unavailable.
func stealTime() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks * float64(time.Second) / userHZ)
}

// userHZ is the kernel's USER_HZ, the unit of /proc/stat on Linux.
const userHZ = 100

// runWindow runs every client in a closed loop for d: each sends its
// next request only after the previous reply. Ops in flight at the
// deadline finish and count. A panicking client stops the window and
// becomes its error.
func runWindow(parent context.Context, clients []client, d time.Duration) (window, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	recs := make([]recorder, len(clients))
	errs := make([]error, len(clients))
	cpu0, steal0 := cpuTime(), stealTime()
	start := time.Now()
	deadline := start.Add(d)
	marks := []mark{{}}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, mark{cpuTime() - cpu0, stealTime() - steal0})
			case <-stop:
				return
			}
		}
	}()
	steals := []stealMark{{}}
	stolen := make(chan struct{})
	go func() {
		defer close(stolen)
		tick := time.NewTicker(stealTick)
		defer tick.Stop()
		for done := false; !done; {
			select {
			case <-tick.C:
			case <-stop:
				done = true
			}
			steals = append(steals, stealMark{time.Since(start), stealTime() - steal0})
		}
	}()
	var wg sync.WaitGroup
	for i := range recs {
		recs[i].start = start
	}
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("client %d panicked: %v\n%s", i, p, debug.Stack())
					cancel()
				}
			}()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				if err := c.step(ctx, &recs[i]); err != nil {
					errs[i] = fmt.Errorf("client %d: %w", i, err)
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	<-stolen
	w := window{wall: time.Since(start), cpu: cpuTime() - cpu0, marks: marks, steals: steals}
	if err := errors.Join(errs...); err != nil {
		return w, err
	}
	if err := parent.Err(); err != nil {
		return w, err
	}
	for i := range recs {
		w.samples = append(w.samples, recs[i].samples...)
	}
	return w, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's VmHWM in MiB (0 when unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencies returns the latencies of the samples keep selects.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

// promSnapshot sums every series of each family in a Prometheus text
// exposition, keyed by sample name (histograms appear as name_sum and
// name_count).
type promSnapshot map[string]float64

func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// scrape fetches and parses the node's GET /metrics.
func scrape(ctx context.Context, hc *http.Client, url string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// delta returns after-before per sample name.
func (after promSnapshot) delta(before promSnapshot) promSnapshot {
	out := promSnapshot{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates d into s.
func (s promSnapshot) add(d promSnapshot) {
	for k, v := range d {
		s[k] += v
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// do sends req and reads the whole reply.
func do(hc *http.Client, req *http.Request) (int, http.Header, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, data, err
}
