package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// short runs a workload briefly in a fresh temp dir.
func short(t *testing.T, ctx context.Context, name string, trace bool, tamper func(http.Handler) http.Handler) (*result, string, error) {
	t.Helper()
	tmp := t.TempDir()
	res, err := execute(ctx, runConfig{
		workload: workloads[name],
		seed:     7,
		window:   400 * time.Millisecond,
		trace:    trace,
		tmp:      tmp,
		log:      io.Discard,
		tamper:   tamper,
	})
	return res, tmp, err
}

// assertClean checks that nothing the run started outlives it: no child
// process, no listening socket, no temp dir, and the goroutine count
// back at its baseline.
func assertClean(t *testing.T, tmp string, baseline int) {
	t.Helper()
	if kids := childProcesses(t); len(kids) > 0 {
		t.Errorf("child processes left: %v", kids)
	}
	if n := listeningSockets(t); n > 0 {
		t.Errorf("%d listening sockets left", n)
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) > 0 {
		t.Errorf("temp dir not empty (%v): %v", err, entries)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines left, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// childProcesses lists the pids whose parent is this process.
func childProcesses(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	self := os.Getpid()
	var kids []int
	for _, p := range stats {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // exited meanwhile
		}
		// Fields after the parenthesised command: state, ppid, ...
		rest := string(data[bytes.LastIndexByte(data, ')')+1:])
		f := strings.Fields(rest)
		if len(f) > 1 {
			if ppid, _ := strconv.Atoi(f[1]); ppid == self {
				pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
				kids = append(kids, pid)
			}
		}
	}
	return kids
}

// listeningSockets counts this process's TCP sockets in LISTEN state.
func listeningSockets(t *testing.T) int {
	t.Helper()
	listen := map[string]bool{}
	for _, f := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			fields := strings.Fields(line)
			if len(fields) > 9 && fields[3] == "0A" {
				listen["socket:["+fields[9]+"]"] = true
			}
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && listen[target] {
			n++
		}
	}
	return n
}

func TestCleanExit(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				res, tmp, err := short(t, context.Background(), name, trace, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
				}
				want := len(perLayer)
				if !trace {
					want = 7
				}
				if len(res.metrics) != want {
					t.Errorf("%d metrics, want %d", len(res.metrics), want)
				}
				assertClean(t, tmp, baseline)
			})
		}
	}
}

func TestInterruptedRunCleansUp(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Second, cancel) // mid-window, after set-up
			defer timer.Stop()
			tmp := t.TempDir()
			_, err := execute(ctx, runConfig{
				workload: workloads[name], seed: 7, window: time.Minute,
				tmp: tmp, log: io.Discard,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			assertClean(t, tmp, baseline)
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	if code := run(ctx, []string{"--workload", "analyze-batch", "--seconds", "1", "--tmp", t.TempDir()}, &out, &errb); code != 130 {
		t.Errorf("interrupted run exited %d, want 130 (%s)", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("interrupted run printed %q", out.String())
	}
	if code := run(context.Background(), []string{"--workload", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
}

// panicky wraps a workload instance so its first client panics.
type panicky struct{ instance }

type panicClient struct{}

func (panicClient) step(context.Context, *recorder) error { panic("boom") }

func (p panicky) clients() []client {
	return append([]client{panicClient{}}, p.instance.clients()...)
}

func TestPanicInWorkloadCleansUp(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := workloads["analyze-batch"]
	inner := w.setup
	w.setup = func(ctx context.Context, e env) (instance, error) {
		inst, err := inner(ctx, e)
		if err != nil {
			return nil, err
		}
		return panicky{inst}, nil
	}
	tmp := t.TempDir()
	_, err := execute(context.Background(), runConfig{workload: w, seed: 7, window: time.Second, tmp: tmp, log: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking workload returned %v", err)
	}
	assertClean(t, tmp, baseline)
}

// tamperAfter wraps the served handler so that, once the first skip
// requests (the set-up warm-up) have passed, every matching request's
// reply is rewritten by edit.
func tamperAfter(skip int64, match func(*http.Request) bool, edit func(http.Header, []byte) []byte) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if seen.Add(1) <= skip || !match(r) {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := edit(rec.Header(), rec.Body.Bytes())
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func TestTamperedReplyFails(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tamper := tamperAfter(int64(analyzeWarmup*runtime.NumCPU()),
		func(r *http.Request) bool { return r.URL.Path == "/v1/analyze" },
		func(_ http.Header, body []byte) []byte {
			return bytes.Replace(body, []byte(`"response_time": `), []byte(`"response_time": 9`), 1)
		})
	res, tmp, err := short(t, context.Background(), "analyze-batch", false, tamper)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.get("ok_share") >= 1 {
		t.Errorf("tampered replies passed: failed %d of %d", res.failed, res.attempted)
	}
	assertClean(t, tmp, baseline)
}

func TestInconsistentEpochFails(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tamper := tamperAfter(int64(sessWarmup*runtime.NumCPU()),
		func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/report") },
		func(h http.Header, body []byte) []byte {
			if e, err := strconv.ParseUint(h.Get("X-Lpdag-Session-Epoch"), 10, 64); err == nil {
				h.Set("X-Lpdag-Session-Epoch", strconv.FormatUint(e+1, 10))
			}
			return body
		})
	res, tmp, err := short(t, context.Background(), "session-durable", false, tamper)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.get("ok_share") >= 1 {
		t.Errorf("inconsistent epochs passed: failed %d of %d", res.failed, res.attempted)
	}
	assertClean(t, tmp, baseline)
}

func TestCleanSlicesDropHostSteal(t *testing.T) {
	// Six slices; the host stole most of the CPU in the third, where the
	// one op completed took 100 ms.
	w := window{wall: 6 * sliceLen}
	heavy := 2 * sliceLen * time.Duration(runtime.NumCPU())
	var steal time.Duration
	w.marks = append(w.marks, mark{})
	for k := 0; k < 6; k++ {
		if k == 2 {
			steal += heavy
		}
		w.marks = append(w.marks, mark{cpu: time.Duration(k+1) * 10 * time.Millisecond, steal: steal})
		ms := 1.0
		if k == 2 {
			ms = 100
		}
		w.samples = append(w.samples, sample{ms: ms, at: time.Duration(k)*sliceLen + sliceLen/2, ok: true})
	}
	clean, n := w.cleanSlices()
	if n != 6 || len(clean) != 5 {
		t.Fatalf("%d clean of %d slices, want 5 of 6", len(clean), n)
	}
	if p := slicePercentile(clean, 0.99); p != 1 {
		t.Errorf("p99 over clean slices %v, want 1", p)
	}
	if got := sliceMean(clean, func(s slice) float64 { return float64(s.ops) }); got != 1 {
		t.Errorf("mean ops per clean slice %v, want 1", got)
	}
	// When the host steals throughout, the least-stolen half counts: here
	// the four slices at the median steal, not the two above it.
	steal = 0
	for k := 1; k < len(w.marks); k++ {
		steal += heavy
		if k > 4 {
			steal += heavy
		}
		w.marks[k].steal = steal
	}
	if clean, _ := w.cleanSlices(); len(clean) != 4 {
		t.Errorf("stolen window: %d clean slices, want 4", len(clean))
	}
}

func TestUnstolenOps(t *testing.T) {
	// The host stole 10 ms between 30 and 40 ms into the window.
	w := window{steals: []stealMark{{0, 0}, {10 * time.Millisecond, 0}, {20 * time.Millisecond, 0},
		{30 * time.Millisecond, 0}, {40 * time.Millisecond, 10 * time.Millisecond}, {50 * time.Millisecond, 10 * time.Millisecond}}}
	for _, c := range []struct {
		at   time.Duration
		ms   float64
		want bool
	}{
		{25 * time.Millisecond, 10, true},  // 15..25 ms
		{35 * time.Millisecond, 10, false}, // 25..35 ms
		{50 * time.Millisecond, 5, true},   // 45..50 ms
		{45 * time.Millisecond, 20, false}, // 25..45 ms
		{55 * time.Millisecond, 1, false},  // ends after the last sample
	} {
		if got := w.unstolen(sample{at: c.at, ms: c.ms}); got != c.want {
			t.Errorf("op %v ms ending at %v: unstolen %v, want %v", c.ms, c.at, got, c.want)
		}
	}
}

func TestLatencyGroups(t *testing.T) {
	// 3.5 groups' worth of ops in seven slices: the remainder joins the
	// last group, and one slow slice does not move the median p99.
	var ss []slice
	for k := 0; k < 7; k++ {
		ms := make([]float64, groupOps/2)
		for i := range ms {
			ms[i] = float64(i%100 + 1)
		}
		if k == 1 {
			for i := range ms {
				ms[i] = 1000
			}
		}
		ss = append(ss, slice{ms: ms})
	}
	groups := latencyGroups(ss)
	if len(groups) != 3 || len(groups[0]) != groupOps || len(groups[2]) != 3*groupOps/2 {
		t.Fatalf("groups of %d ops", func() []int {
			var n []int
			for _, g := range groups {
				n = append(n, len(g))
			}
			return n
		}())
	}
	if p := slicePercentile(ss, 0.99); p != 99 {
		t.Errorf("p99 %v, want the median of the groups' p99s 1000, 99 and 99", p)
	}
	if p := slicePercentile(ss[:1], 0.99); p != 99 {
		t.Errorf("p99 of one short slice %v, want 99", p)
	}
}

func TestPromParse(t *testing.T) {
	in := "# HELP x y\n# TYPE x counter\nx{kind=\"a\"} 2\nx{kind=\"b\"} 3\nh_sum 1.5\nh_count 4\n"
	snap, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if snap["x"] != 5 || snap["h_sum"] != 1.5 || snap["h_count"] != 4 {
		t.Errorf("parsed %v", snap)
	}
}
