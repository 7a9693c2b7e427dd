package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// setupReps is how often a run sets its workload up; setup_s is the
// median, and only the last set-up is measured.
const setupReps = 5

// unaccountedLimit is the documented bound on trace.unaccounted_share:
// above it the layer table no longer explains the handler time and the
// traced run flags the workload.
const unaccountedLimit = 0.25

// workload is one benchmark traffic mix; README.md says why each exists.
type workload struct {
	name  string
	setup func(ctx context.Context, e env) (instance, error)
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is what a workload's set-up gets.
type env struct {
	seed   int64
	tmp    string
	tracer *tracer
	tamper func(http.Handler) http.Handler
}

// instance is a set-up workload: a started node plus its clients.
type instance interface {
	node() *stack
	clients() []client
	// digest is a SHA-256 over the generated inputs, so two runs can
	// show they measured the same inputs.
	digest() string
	// replay feeds the inputs recorded while tracing through each
	// layer's public functions and fills the layer metrics it owns.
	replay(ctx context.Context, m layerValues) error
	// verify runs the checks that wait for the end of the run and
	// returns how many ops they failed. It may stop the node.
	verify(ctx context.Context) (failed int, err error)
	close() error
}

// runConfig is one invocation.
type runConfig struct {
	workload workload
	seed     int64
	window   time.Duration
	trace    bool
	tmp      string
	log      io.Writer // human-readable report
	tamper   func(http.Handler) http.Handler
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// result is a finished run.
type result struct {
	attempted, failed int
	metrics           []metric
	spans             []span
}

func (r *result) summary() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = val{x.value, x.unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m}
}

// execute sets the workload up, measures it and tears it down on every
// path, a panic included.
func execute(ctx context.Context, cfg runConfig) (res *result, err error) {
	var inst instance
	defer func() {
		if p := recover(); p != nil {
			err = errors.Join(err, fmt.Errorf("panic: %v\n%s", p, debug.Stack()))
			res = nil
		}
		if inst != nil {
			if cerr := inst.close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("teardown: %w", cerr))
				res = nil
			}
		}
		// An interrupt surfaces wherever the run was, set-up included.
		if err != nil && ctx.Err() != nil && !errors.Is(err, ctx.Err()) {
			err = errors.Join(ctx.Err(), err)
		}
	}()
	tr := newTracer()
	e := env{seed: cfg.seed, tmp: cfg.tmp, tracer: tr, tamper: cfg.tamper}
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		t0 := time.Now()
		if inst, err = cfg.workload.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "workload %s  seed %d  inputs sha256:%s\n", cfg.workload.name, cfg.seed, inst.digest())
	fmt.Fprintf(cfg.log, "closed loop: %d clients, one keep-alive connection each; engine workers %d\n",
		len(inst.clients()), runtime.NumCPU())
	fmt.Fprintf(cfg.log, "setup runs (s): %.4f\n", setups)
	if cfg.trace {
		return traced(ctx, cfg, inst, tr)
	}

	w, err := runWindow(ctx, inst.clients(), cfg.window)
	if err != nil {
		return nil, err
	}
	late, err := inst.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res = &result{attempted: len(w.samples), failed: countFailed(w.samples) + late}
	ops := float64(len(w.samples))
	clean, slices := w.cleanSlices()
	res.metrics = []metric{
		{"setup_s", "s", median(setups)},
		{"ops_per_s", "1/s", sliceMean(clean, func(s slice) float64 { return float64(s.ops) / s.dur.Seconds() })},
		{"latency_p50_ms", "ms", slicePercentile(clean, 0.50)},
		{"latency_p99_ms", "ms", slicePercentile(clean, 0.99)},
		{"ok_share", "share", 1 - ratio(float64(res.failed), ops)},
		{"cpu_ms_per_op", "ms", sliceMean(clean, func(s slice) float64 { return ratio(float64(s.cpu)/1e6, float64(s.ops)) })},
		{"peak_rss_mb", "MiB", peakRSSMB()},
	}
	for _, m := range res.metrics {
		fmt.Fprintf(cfg.log, "%-22s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(cfg.log, "%-22s %14.4f share (%d failed of %d attempted)\n", "failed_share",
		ratio(float64(res.failed), ops), res.failed, res.attempted)
	fmt.Fprintf(cfg.log, "measured over %d of %d one-second slices (host steal at most %.0f%% of CPU time)\n",
		len(clean), slices, 100*stealShare)
	fmt.Fprintf(cfg.log, "latency percentiles: median over %d groups of at least %d ops the host stole no time from (%d of %d ops)\n",
		len(latencyGroups(clean)), groupOps, len(latencies(w.samples, w.unstolen)), len(w.samples))
	printSampleCounts(cfg.log, w.samples)
	printSlices(cfg.log, w)
	return res, nil
}

// printSlices shows each slice's throughput, CPU per op and host steal.
func printSlices(out io.Writer, w window) {
	fmt.Fprintf(out, "slices (ops/s, cpu ms/op, steal ms):")
	for _, s := range w.slices() {
		fmt.Fprintf(out, " %.0f/%.2f/%d", float64(s.ops)/s.dur.Seconds(), ratio(float64(s.cpu)/1e6, float64(s.ops)), s.steal.Milliseconds())
	}
	fmt.Fprintln(out)
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// classLatencies are the op-class percentiles (session-durable's
// write/read/repair split).
func classLatencies(samples []sample) map[string]float64 {
	write := latencies(samples, func(s sample) bool { return s.class == classWrite })
	read := latencies(samples, func(s sample) bool { return s.class == classRead })
	rep := latencies(samples, func(s sample) bool { return s.repair })
	return map[string]float64{
		"op.write_p50_ms":  percentile(write, 0.50),
		"op.write_p99_ms":  percentile(write, 0.99),
		"op.read_p50_ms":   percentile(read, 0.50),
		"op.read_p99_ms":   percentile(read, 0.99),
		"op.repair_p50_ms": percentile(rep, 0.50),
	}
}

// printSampleCounts reports each percentile's sample count and how many
// samples lie beyond the p99 (the benchmark wants at least ten).
func printSampleCounts(w io.Writer, samples []sample) {
	line := func(label string, keep func(sample) bool) {
		xs := latencies(samples, keep)
		if len(xs) == 0 {
			return
		}
		p50, p99 := percentile(xs, 0.50), percentile(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > p99 {
				beyond++
			}
		}
		fmt.Fprintf(w, "%-8s samples %6d  p50 %9.4f ms  p99 %9.4f ms  beyond p99 %d\n", label, len(xs), p50, p99, beyond)
	}
	line("all", func(sample) bool { return true })
	line("write", func(s sample) bool { return s.class == classWrite })
	line("read", func(s sample) bool { return s.class == classRead })
	line("repair", func(s sample) bool { return s.repair })
}

// runtimeCounters reads the Go runtime's allocation and GC CPU counters.
type runtimeCounters struct{ allocs, bytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{f(0), f(1), f(2), f(3)}
}

func (c runtimeCounters) sub(d runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs - d.allocs, c.bytes - d.bytes, c.gcCPU - d.gcCPU, c.totalCPU - d.totalCPU}
}

func (c *runtimeCounters) add(d runtimeCounters) {
	c.allocs, c.bytes, c.gcCPU, c.totalCPU = c.allocs+d.allocs, c.bytes+d.bytes, c.gcCPU+d.gcCPU, c.totalCPU+d.totalCPU
}

// tracePhases is how many phases a traced run alternates between
// untraced and traced, so a slow drift in machine speed does not land on
// one side of trace.overhead_share.
const tracePhases = 4

// traced is the per-layer run: the untraced phases give the overhead
// baseline, the runtime counters and the op-class latencies; the traced
// phases record spans and /metrics deltas; the inputs recorded while
// tracing are then replayed through each layer's public functions.
func traced(ctx context.Context, cfg runConfig, inst instance, tr *tracer) (*result, error) {
	hc, htr := newHTTPClient()
	defer htr.CloseIdleConnections()
	url := inst.node().url
	var wa, wb window // untraced and traced phases
	var rt runtimeCounters
	delta := promSnapshot{}
	for p := 0; p < tracePhases; p++ {
		on := p%2 == 1
		var before promSnapshot
		var rt0 runtimeCounters
		var err error
		if on {
			if before, err = scrape(ctx, hc, url); err != nil {
				return nil, err
			}
		} else {
			rt0 = readRuntime()
		}
		tr.on.Store(on)
		w, err := runWindow(ctx, inst.clients(), cfg.window/tracePhases)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		if on {
			after, err := scrape(ctx, hc, url)
			if err != nil {
				return nil, err
			}
			delta.add(after.delta(before))
			wb.add(w)
		} else {
			rt.add(readRuntime().sub(rt0))
			wa.add(w)
		}
	}
	htr.CloseIdleConnections()
	spans := tr.taken()

	m := layerValues{}
	for k, v := range classLatencies(wa.samples) {
		m[k] = v
	}
	opsA, opsB := float64(len(wa.samples)), float64(len(wb.samples))
	m["runtime.allocs_per_op"] = ratio(rt.allocs, opsA)
	m["runtime.alloc_bytes_per_op"] = ratio(rt.bytes, opsA)
	m["runtime.gc_cpu_share"] = ratio(rt.gcCPU, rt.totalCPU)
	cpuA := ratio(float64(wa.cpu)/1e6, opsA)
	cpuB := ratio(float64(wb.cpu)/1e6, opsB)
	m["trace.overhead_share"] = ratio(cpuB-cpuA, cpuA)
	m.fromMetrics(delta, opsB, len(inst.clients()))
	sp := m.fromSpans(spans, opsB)
	if err := inst.replay(ctx, m); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	late, err := inst.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	samples := append(wa.samples, wb.samples...)
	res := &result{attempted: len(samples), failed: countFailed(samples) + late, spans: spans}
	rows := m.layerTable(sp)
	for _, d := range perLayer {
		res.metrics = append(res.metrics, metric{d.name, d.unit, m[d.name]})
	}
	fmt.Fprintf(cfg.log, "untraced phases: %d ops, %.4f cpu ms/op; traced phases: %d ops, %.4f cpu ms/op\n",
		len(wa.samples), cpuA, len(wb.samples), cpuB)
	printSampleCounts(cfg.log, wa.samples)
	printLayerTable(cfg.log, cfg.workload.name, rows, sp.opMs, m["trace.unaccounted_share"])
	if n := m["_encode_differs"]; n > 0 {
		fmt.Fprintf(cfg.log, "warning: %v replayed replies differ from the served bytes; a wire replica is out of date\n", n)
	}
	for _, x := range res.metrics {
		fmt.Fprintf(cfg.log, "%-38s %14.4f %s\n", x.name, x.value, x.unit)
	}
	fmt.Fprintf(cfg.log, "failed_share %.4f (%d failed of %d attempted)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	return res, nil
}

// metricDef names a per-layer metric and its unit.
type metricDef struct{ name, unit string }

// perLayer is every per-layer metric, reported by every workload (0 where
// the workload does not exercise the layer). See README.md for which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"client.self_ms", "ms"},
	{"engine.http.handler_ms", "ms"},
	{"engine.http.body_read_ms", "ms"},
	{"engine.http.write_ms", "ms"},
	{"engine.http.bytes_in_per_op", "bytes"},
	{"engine.http.bytes_out_per_op", "bytes"},
	{"engine.http.requests_per_op", "count"},
	{"engine.http.request_decode_ms", "ms"},
	{"engine.http.response_encode_ms", "ms"},
	{"model.decode_ms_per_op", "ms"},
	{"model.decode_allocs_per_op", "count"},
	{"dag.build_ms_per_op", "ms"},
	{"dag.fingerprint_ms_per_op", "ms"},
	{"dag.nodes_per_op", "count"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.job_ms", "ms"},
	{"engine.jobs_per_op", "count"},
	{"rta.fixed_point_ms_per_op", "ms"},
	{"rta.fixed_point_iters_per_job", "count"},
	{"rta.suffix_restore_ms_per_op", "ms"},
	{"rta.incremental_run_share", "share"},
	{"core.analyze_ms_per_set", "ms"},
	{"cache.hit_ratio", "share"},
	{"cache.lookups_per_op", "count"},
	{"cache.lookup_ms_per_op", "ms"},
	{"session.report_ms", "ms"},
	{"session.admit_ms", "ms"},
	{"session.snapshot_encode_ms", "ms"},
	{"session.snapshot_bytes", "bytes"},
	{"engine.sessions.gate_wait_ms", "ms"},
	{"engine.sessionstore.append_ms", "ms"},
	{"engine.sessionstore.appends_per_write", "count"},
	{"repair.search_ms", "ms"},
	{"repair.candidates_per_search", "count"},
	{"repair.flip_ratio", "share"},
	{"experiments.point_compute_ms", "ms"},
	{"experiments.jsonl_encode_us_per_point", "us"},
	{"experiments.bin_encode_us_per_point", "us"},
	{"gen.taskset_ms", "ms"},
	{"cluster.stream_bytes_per_point", "bytes"},
	{"cluster.lease_requeues", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_share", "share"},
	{"op.write_p50_ms", "ms"},
	{"op.write_p99_ms", "ms"},
	{"op.read_p50_ms", "ms"},
	{"op.read_p99_ms", "ms"},
	{"op.repair_p50_ms", "ms"},
	{"trace.unaccounted_share", "share"},
	{"trace.overhead_share", "share"},
}

// layerValues holds the per-layer metrics of one traced run, plus the
// per-op layer times the table needs (keys starting with "_").
type layerValues map[string]float64

// fromMetrics derives the layer metrics the node's /metrics families
// give over the traced half. The analysis-phase series are recorded only
// on the /v1/analyze path; session and campaign analyses are replayed
// with a trace of their own instead (see replayTraced).
func (m layerValues) fromMetrics(d promSnapshot, ops float64, clients int) {
	m["_ops"] = ops
	jobs := d["lpdag_engine_jobs_total"]
	m["engine.jobs_per_op"] = ratio(jobs, ops)
	m["engine.queue_wait_ms"] = 1e3 * ratio(d["lpdag_engine_queue_wait_seconds_sum"], d["lpdag_engine_queue_wait_seconds_count"])
	m["engine.job_ms"] = 1e3 * ratio(d["lpdag_engine_job_duration_seconds_sum"], d["lpdag_engine_job_duration_seconds_count"])
	m["_queue_wait_ms_per_op"] = 1e3 * ratio(d["lpdag_engine_queue_wait_seconds_sum"], ops)
	m["_job_ms_per_op"] = 1e3 * ratio(d["lpdag_engine_job_duration_seconds_sum"], ops)
	m["_clients"] = float64(clients)
	m.fromTrace(d, ops)

	hits, misses, waits := d["lpdag_cache_hits_total"], d["lpdag_cache_misses_total"], d["lpdag_cache_waits_total"]
	m["cache.hit_ratio"] = ratio(hits, hits+misses+waits)
	m["cache.lookups_per_op"] = ratio(hits+misses+waits, ops)

	m["engine.sessions.gate_wait_ms"] = 1e3 * ratio(d["lpdag_session_gate_wait_seconds_sum"], d["lpdag_session_gate_wait_seconds_count"])
	m["_gate_wait_ms_per_op"] = 1e3 * ratio(d["lpdag_session_gate_wait_seconds_sum"], ops)
	m["_snapshots"] = d["lpdag_session_snapshots_total"]
	searches := d["lpdag_repair_search_seconds_count"]
	m["repair.search_ms"] = 1e3 * ratio(d["lpdag_repair_search_seconds_sum"], searches)
	m["repair.candidates_per_search"] = ratio(d["lpdag_repair_candidates_total"], searches)
	m["repair.flip_ratio"] = ratio(d["lpdag_repair_flips_total"], d["lpdag_repair_candidates_total"])
}

// fromTrace derives the rta metrics from the analysis-phase series of a
// snapshot (the node's, or a replay registry's) over ops ops.
func (m layerValues) fromTrace(d promSnapshot, ops float64) {
	full, inc := d["lpdag_analysis_full_runs_total"], d["lpdag_analysis_incremental_runs_total"]
	if full+inc == 0 {
		return
	}
	m["rta.fixed_point_ms_per_op"] = 1e3 * ratio(d["lpdag_analysis_fixed_point_seconds_sum"], ops)
	m["rta.fixed_point_iters_per_job"] = ratio(d["lpdag_analysis_fixed_point_iterations_sum"], d["lpdag_analysis_fixed_point_iterations_count"])
	m["rta.suffix_restore_ms_per_op"] = 1e3 * ratio(d["lpdag_analysis_suffix_restore_seconds_sum"], ops)
	m["rta.incremental_run_share"] = ratio(inc, full+inc)
	m["cache.lookup_ms_per_op"] = 1e3 * ratio(d["lpdag_analysis_cache_lookup_seconds_sum"], ops)
}

// encoded records a replayed response encode over ops ops.
func (m layerValues) encoded(e *encodeTimer, ops int) {
	m["engine.http.response_encode_ms"] = msPer(e.dur, ops)
	m["_encode_differs"] += float64(e.differs)
}

// spanTotals are the per-op means of the recorded spans.
type spanTotals struct {
	opMs, handlerMs, readMs, writeMs float64
}

// fromSpans derives the HTTP-layer metrics from the traced half's spans.
func (m layerValues) fromSpans(spans []span, ops float64) spanTotals {
	var client, handler, read, write, in, out, reqs, shardOut float64
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		ms := float64(s.Dur) / 1e6
		switch s.Name {
		case spanClient:
			client += ms
		case spanHandler:
			handler += ms
			reqs++
			if s.Route == "/v1/shard" {
				m["_shard_requests"]++
			}
		case spanBodyRead:
			read += ms
			in += float64(s.Bytes)
		case spanWrite:
			write += ms
			out += float64(s.Bytes)
			if s.Route == "/v1/shard" {
				shardOut += float64(s.Bytes)
			}
		}
	}
	m["_shard_bytes"] = shardOut
	t := spanTotals{opMs: ratio(client, ops), handlerMs: ratio(handler, ops), readMs: ratio(read, ops), writeMs: ratio(write, ops)}
	m["client.self_ms"] = t.opMs - t.handlerMs
	m["engine.http.handler_ms"] = t.handlerMs
	m["engine.http.body_read_ms"] = t.readMs
	m["engine.http.write_ms"] = t.writeMs
	m["engine.http.bytes_in_per_op"] = ratio(in, ops)
	m["engine.http.bytes_out_per_op"] = ratio(out, ops)
	m["engine.http.requests_per_op"] = ratio(reqs, ops)
	return t
}

// layerRow is one line of the layer table.
type layerRow struct {
	layer       string
	selfMs      float64 // per op
	countPerOp  float64
	description string
}

// layerTable splits the mean op time into layer self times. Layers
// inside the handler are measured from outside (replay and /metrics), so
// their per-op wall time is an estimate. Replayed layers run alone, so
// they carry none of the CPU contention of the live run. An op's engine
// jobs are submitted by _submitters goroutines at once, so their queue
// wait + run intervals cover at least their sum over that many; when
// the clients' ops keep every worker busy, an op holds Workers/clients
// of the pool, so its jobs' run time stretches by clients/Workers. The
// pool row is the larger of the two. What no layer covers is the
// handler's own time, reported as trace.unaccounted_share.
func (m layerValues) layerTable(sp spanTotals) []layerRow {
	shared := m["_job_ms_per_op"] * m["_clients"] / float64(runtime.NumCPU())
	engineMs := max(ratio(m["_queue_wait_ms_per_op"]+m["_job_ms_per_op"], m["_submitters"]), shared)
	rows := []layerRow{
		{"engine.http.body_read", sp.readMs, 1, "request body reads"},
		{"engine.http.request_decode", m["engine.http.request_decode_ms"], 1, "request envelope decode (replay)"},
		{"model.decode", m["model.decode_ms_per_op"] - m["dag.build_ms_per_op"], 1, "TaskSet/Task.UnmarshalJSON minus dag.Build (replay)"},
		{"dag.build", m["dag.build_ms_per_op"], m["dag.nodes_per_op"], "Builder.Build inside decode (replay)"},
		{"engine.sessions.gate_wait", m["_gate_wait_ms_per_op"], 1, "per-session op gate (/metrics)"},
		{"engine.pool", engineMs, m["engine.jobs_per_op"], "queue wait + job run (/metrics), per-op estimate"},
		{"engine.sessionstore.append", m["engine.sessionstore.append_ms"] * m["_appends_per_op"], m["_appends_per_op"], "snapshot append + fsync (replay)"},
		{"experiments.bin_encode", m["experiments.bin_encode_us_per_point"] / 1e3 * m["_points_per_op"], m["_points_per_op"], "shard stream frames (replay)"},
		{"engine.http.response_encode", m["engine.http.response_encode_ms"], 1, "response JSON encode (replay)"},
		{"engine.http.write", sp.writeMs, 1, "response writes and flushes"},
	}
	covered := 0.0
	for _, r := range rows {
		covered += r.selfMs
	}
	self := sp.handlerMs - covered
	m["trace.unaccounted_share"] = ratio(max(0, self), sp.handlerMs)
	rows = append([]layerRow{
		{"client", sp.opMs - sp.handlerMs, 1, "round trip minus handler: loopback, client encode/decode"},
		{"engine.http (unaccounted)", self, m["engine.http.requests_per_op"], "handler time no child layer covers"},
	}, rows...)
	return rows
}

func printLayerTable(w io.Writer, workload string, rows []layerRow, opMs, unaccounted float64) {
	fmt.Fprintf(w, "layer table: %s (mean op %.4f ms)\n", workload, opMs)
	fmt.Fprintf(w, "  %-28s %12s %10s %8s  %s\n", "layer", "self ms/op", "count/op", "share", "source")
	for _, r := range rows {
		if r.selfMs == 0 && r.countPerOp == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %12.4f %10.2f %7.1f%%  %s\n", r.layer, r.selfMs, r.countPerOp, 100*ratio(r.selfMs, opMs), r.description)
	}
	flag := "ok"
	if unaccounted > unaccountedLimit {
		flag = fmt.Sprintf("FLAGGED: above the %.2f limit", unaccountedLimit)
	}
	fmt.Fprintf(w, "  trace.unaccounted_share %.4f (%s)\n", unaccounted, flag)
}
