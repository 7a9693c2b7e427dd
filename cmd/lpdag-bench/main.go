// Command lpdag-bench runs the tracked performance benchmarks and
// maintains BENCH_analyze.json: the repo's measured perf trajectory.
//
// Usage:
//
//	lpdag-bench [-bench regex] [-count n] [-benchtime t] [-pkg pattern]
//	            [-label s] [-out file] [-baseline file] [-max-regress pct]
//
// It shells out to `go test -run=^$ -bench ... -benchmem -count n`,
// parses the standard benchmark output, and condenses each benchmark to
// its best (minimum) ns/op across the count repetitions with the
// matching B/op and allocs/op — the benchstat-style "min damps noise"
// reading, which suits the CI boxes these runs share. It also prints
// min, median and max ns/op per benchmark, so the noise the minimum
// hides stays visible.
//
// With -baseline it compares the fresh numbers against the LAST entry
// of the baseline trajectory and exits 1 when, for any benchmark
// present in both:
//
//   - allocs/op grew by more than 1% + 1 (allocation counts are mostly
//     deterministic, but one-time warm-up allocations — scratch growth,
//     cache fills — amortize differently at different -benchtime, so an
//     exact gate would flake; steady-state zero-alloc is asserted
//     exactly by TestAnalyzerSteadyStateZeroAlloc instead), or
//   - ns/op regressed by more than -max-regress percent.
//
// Independently of any baseline, every run checks three standing gates:
//
//   - cache inversion: if both engine-sweep benchmarks are present,
//     EngineCachedSweep exceeding EngineUncachedSweep (ns/op beyond a
//     small noise slack, or allocs/op at all) exits 1 — the cache
//     paying for itself is an invariant, not a point-in-time
//     comparison;
//   - serving allocation budget: CampaignThroughput allocs/op above
//     -max-campaign-allocs exits 1 — the pooled stream encoders keep a
//     campaign's allocation cost O(1) per batch, and the absolute
//     budget catches compounding creep a relative gate would wave
//     through;
//   - durable edit budget: SessionEditDurable ns/op above
//     -max-durable-edit-ns exits 1 — the durable commit path is one
//     snapshot encode + one append + one fsync, and an absolute ceiling
//     (rather than a disk-vs-disk relative gate) catches anything
//     structural joining that path.
//
// With -out it appends the fresh entry to the trajectory file (creating
// it when missing) so each PR can land its measured point.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Measurement is one benchmark's condensed result.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Entry is one point of the perf trajectory.
type Entry struct {
	Label      string                 `json:"label"`
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go"`
	Count      int                    `json:"count"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// Trajectory is the BENCH_analyze.json document: oldest entry first.
type Trajectory struct {
	Entries []Entry `json:"entries"`
}

// DefaultBench is the tracked benchmark set.
const DefaultBench = "^(BenchmarkAnalyzePoint|BenchmarkCampaignThroughput|BenchmarkEngineUncachedSweep|BenchmarkEngineCachedSweep|BenchmarkSessionEdit|BenchmarkSessionEditDurable|BenchmarkSessionEditFullReanalysis|BenchmarkSessionAdmitProbe|BenchmarkSessionRepair|BenchmarkServeAnalyze)$"

// DefaultMaxCampaignAllocs is the standing allocation budget of the
// serving data plane: BenchmarkCampaignThroughput (one full campaign —
// generation, three methods, streaming — per op) may not exceed this
// many allocs/op. The pooled solver and wire codecs brought the number
// from ~362k to ~60k; the budget holds a 1.5× headroom over that so
// noise passes but any per-result allocation creeping back into the
// stream path (which multiplies by the point count) fails loudly.
const DefaultMaxCampaignAllocs = 90000

// DefaultMaxDurableEditNs is the standing latency budget of the durable
// session plane: BenchmarkSessionEditDurable (one edit + report +
// snapshot append + fsync per op) may not exceed this many ns/op. The
// op is fsync-bound, so a relative baseline gate would only measure the
// CI box's disk against last PR's CI box; the absolute budget — 25ms,
// an order of magnitude over a worst-case rotational fsync — instead
// catches structural mistakes: a second fsync sneaking onto the commit
// path, compaction running under the append lock, or snapshot encoding
// going quadratic.
const DefaultMaxDurableEditNs = 25_000_000

// DefaultMaxRepairSearchNs is the standing latency budget of the
// repair engine's greedy path: BenchmarkSessionRepair (one full greedy
// search over the 17-task blocked session, query mode) may not exceed
// this many ns/op. Repair backs an interactive verb (the REPL `fix`
// command and POST /repair), so it gets an absolute ceiling rather
// than a relative baseline: the search currently lands well under
// 0.1ms, and the 10ms budget catches structural blow-ups — candidate
// generation going quadratic, the incremental analyzer losing its
// checkpoint reuse under repair's task rewrites — that machine
// variation cannot explain.
const DefaultMaxRepairSearchNs = 10_000_000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpdag-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench             = fs.String("bench", DefaultBench, "benchmark regex passed to go test -bench")
		count             = fs.Int("count", 3, "repetitions per benchmark (best of n is recorded)")
		benchtime         = fs.String("benchtime", "", "go test -benchtime (empty = go default)")
		pkg               = fs.String("pkg", ".", "package pattern to benchmark")
		label             = fs.String("label", "", "entry label (default: bench-<date>)")
		out               = fs.String("out", "", "trajectory file to append the entry to")
		baseline          = fs.String("baseline", "", "trajectory file to regress against (its last entry)")
		maxRegress        = fs.Float64("max-regress", 20, "max tolerated ns/op regression in percent")
		maxCampaignAllocs = fs.Int64("max-campaign-allocs", DefaultMaxCampaignAllocs,
			"standing allocs/op budget for CampaignThroughput (0 disables)")
		maxDurableEditNs = fs.Float64("max-durable-edit-ns", DefaultMaxDurableEditNs,
			"standing ns/op budget for SessionEditDurable (0 disables)")
		maxRepairSearchNs = fs.Float64("max-repair-search-ns", DefaultMaxRepairSearchNs,
			"standing ns/op budget for SessionRepair's greedy search (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cmdArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		cmdArgs = append(cmdArgs, "-benchtime", *benchtime)
	}
	cmdArgs = append(cmdArgs, *pkg)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-bench: go %s: %v\n%s", strings.Join(cmdArgs, " "), err, raw)
		return 1
	}
	fmt.Fprintf(stdout, "%s", raw)

	benches, runs, err := ParseBenchOutput(strings.NewReader(string(raw)))
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-bench: %v\n", err)
		return 1
	}
	if len(benches) == 0 {
		fmt.Fprintf(stderr, "lpdag-bench: no benchmarks matched %q\n", *bench)
		return 1
	}
	WriteSpread(stdout, runs)
	entry := Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Count:      *count,
		Benchmarks: benches,
	}
	if entry.Label == "" {
		entry.Label = "bench-" + entry.Date
	}

	status := 0
	for _, inv := range CheckInversion(entry) {
		fmt.Fprintf(stderr, "lpdag-bench: INVERSION: %s\n", inv)
		status = 1
	}
	for _, over := range CheckServingBudget(entry, *maxCampaignAllocs) {
		fmt.Fprintf(stderr, "lpdag-bench: BUDGET: %s\n", over)
		status = 1
	}
	for _, over := range CheckDurabilityBudget(entry, *maxDurableEditNs) {
		fmt.Fprintf(stderr, "lpdag-bench: BUDGET: %s\n", over)
		status = 1
	}
	for _, over := range CheckRepairBudget(entry, *maxRepairSearchNs) {
		fmt.Fprintf(stderr, "lpdag-bench: BUDGET: %s\n", over)
		status = 1
	}
	if *baseline != "" {
		base, err := ReadTrajectory(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-bench: baseline: %v\n", err)
			return 1
		}
		if len(base.Entries) == 0 {
			fmt.Fprintf(stderr, "lpdag-bench: baseline %s has no entries\n", *baseline)
			return 1
		}
		last := base.Entries[len(base.Entries)-1]
		regressions := Compare(last, entry, *maxRegress)
		for _, r := range regressions {
			fmt.Fprintf(stderr, "lpdag-bench: REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			status = 1
		} else {
			fmt.Fprintf(stderr, "lpdag-bench: no regressions vs %q (gate: allocs +1%%+1, ns/op +%.0f%%)\n",
				last.Label, *maxRegress)
		}
	}

	if *out != "" {
		traj, err := ReadTrajectory(*out)
		if err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "lpdag-bench: out: %v\n", err)
			return 1
		}
		traj.Entries = append(traj.Entries, entry)
		if err := WriteTrajectory(*out, traj); err != nil {
			fmt.Fprintf(stderr, "lpdag-bench: out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "lpdag-bench: appended entry %q to %s (%d entries)\n",
			entry.Label, *out, len(traj.Entries))
	}
	return status
}

// benchLineRE matches `go test -bench -benchmem` result lines, e.g.
// "BenchmarkAnalyzePoint-8  1000  710 ns/op  0 B/op  0 allocs/op".
var benchLineRE = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// ParseBenchOutput condenses benchmark output to the best (minimum)
// ns/op per benchmark name across repetitions, keeping the memory
// columns of the selected repetition. It also returns every
// repetition's ns/op per name, for WriteSpread.
func ParseBenchOutput(r io.Reader) (map[string]Measurement, map[string][]float64, error) {
	out := make(map[string]Measurement)
	runs := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %q: %w", sc.Text(), err)
		}
		meas := Measurement{NsPerOp: ns}
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			meas.BytesPerOp = int64(b)
		}
		if m[4] != "" {
			a, _ := strconv.ParseFloat(m[4], 64)
			meas.AllocsPerOp = int64(a)
		}
		runs[name] = append(runs[name], ns)
		if prev, ok := out[name]; !ok || meas.NsPerOp < prev.NsPerOp {
			out[name] = meas
		}
	}
	return out, runs, sc.Err()
}

// WriteSpread prints min, median and max ns/op per benchmark, so the
// noise behind the recorded minimum is visible.
func WriteSpread(w io.Writer, runs map[string][]float64) {
	fmt.Fprintln(w, "ns/op across repetitions (min is recorded):")
	for _, name := range slices.Sorted(maps.Keys(runs)) {
		ns := slices.Sorted(slices.Values(runs[name]))
		n := len(ns)
		fmt.Fprintf(w, "  %-28s min %12.1f  median %12.1f  max %12.1f  (n=%d)\n",
			name, ns[0], (ns[(n-1)/2]+ns[n/2])/2, ns[n-1], n)
	}
}

// inversionNsSlack is the multiplicative tolerance of the cache
// inversion gate's ns/op leg. Cached and uncached sweeps share the
// same steady-state code path (the analyzer-local memo), so their
// times differ only by run-to-run noise; 5% covers that noise while
// still catching anything like the 2× inversion the gate exists for.
// The allocs/op leg is exact — allocation counts are deterministic.
const inversionNsSlack = 1.05

// CheckInversion enforces the cache's reason to exist: on the
// recurring-workload sweep, running WITH the cache must not be slower
// or more allocation-heavy than running without it. Returns violation
// descriptions for the entry, empty when the gate passes or either
// benchmark is absent (a partial -bench run can't judge).
func CheckInversion(e Entry) []string {
	cached, okC := e.Benchmarks["EngineCachedSweep"]
	uncached, okU := e.Benchmarks["EngineUncachedSweep"]
	if !okC || !okU {
		return nil
	}
	var out []string
	if cached.NsPerOp > uncached.NsPerOp*inversionNsSlack {
		out = append(out, fmt.Sprintf(
			"EngineCachedSweep %.4g ns/op exceeds EngineUncachedSweep %.4g ns/op (+%.0f%% slack): the cache costs more than it saves",
			cached.NsPerOp, uncached.NsPerOp, 100*(inversionNsSlack-1)))
	}
	if cached.AllocsPerOp > uncached.AllocsPerOp {
		out = append(out, fmt.Sprintf(
			"EngineCachedSweep %d allocs/op exceeds EngineUncachedSweep %d: the cache allocates on the hot path",
			cached.AllocsPerOp, uncached.AllocsPerOp))
	}
	return out
}

// CheckServingBudget enforces the serving data plane's standing
// allocation budget: CampaignThroughput allocs/op at or under
// maxCampaignAllocs. Unlike Compare this is absolute, not relative to a
// baseline — small per-PR creep can pass a 1%+1 gate every time yet
// compound; the budget is the line that cannot be crossed by
// accumulation. Returns violation descriptions; empty when the gate
// passes, the benchmark is absent (a partial -bench run can't judge),
// or the budget is 0 (disabled).
func CheckServingBudget(e Entry, maxCampaignAllocs int64) []string {
	if maxCampaignAllocs <= 0 {
		return nil
	}
	var out []string
	if m, ok := e.Benchmarks["CampaignThroughput"]; ok && m.AllocsPerOp > maxCampaignAllocs {
		out = append(out, fmt.Sprintf(
			"CampaignThroughput %d allocs/op exceeds the serving budget %d: per-result allocation is back on the stream path",
			m.AllocsPerOp, maxCampaignAllocs))
	}
	return out
}

// CheckDurabilityBudget enforces the durable session plane's standing
// latency budget: SessionEditDurable ns/op at or under maxNs. The op is
// fsync-bound, so relative gating across heterogeneous CI disks flakes;
// the absolute ceiling catches structural regressions (extra fsyncs on
// the commit path, compaction under the append lock) that disk
// variation cannot explain. Returns violation descriptions; empty when
// the gate passes, the benchmark is absent, or the budget is 0.
func CheckDurabilityBudget(e Entry, maxNs float64) []string {
	if maxNs <= 0 {
		return nil
	}
	var out []string
	if m, ok := e.Benchmarks["SessionEditDurable"]; ok && m.NsPerOp > maxNs {
		out = append(out, fmt.Sprintf(
			"SessionEditDurable %.4g ns/op exceeds the %.4g ns fsync budget: something structural joined the durable commit path",
			m.NsPerOp, maxNs))
	}
	return out
}

// CheckRepairBudget enforces the repair engine's standing interactive
// latency budget: SessionRepair (one greedy search in query mode) ns/op
// at or under maxNs. Returns violation descriptions; empty when the
// gate passes, the benchmark is absent, or the budget is 0.
func CheckRepairBudget(e Entry, maxNs float64) []string {
	if maxNs <= 0 {
		return nil
	}
	var out []string
	if m, ok := e.Benchmarks["SessionRepair"]; ok && m.NsPerOp > maxNs {
		out = append(out, fmt.Sprintf(
			"SessionRepair %.4g ns/op exceeds the %.4g ns interactive budget: the greedy search path regressed structurally",
			m.NsPerOp, maxNs))
	}
	return out
}

// Compare reports the regressions of cur vs base: an allocs/op increase
// beyond 1% + 1 (warm-up allocations amortize differently at different
// -benchtime, so exact equality flakes), or an ns/op slowdown beyond
// maxRegressPct, for benchmarks present in both entries. Benchmarks only
// on one side are ignored (new benchmarks must be able to land without a
// baseline).
func Compare(base, cur Entry, maxRegressPct float64) []string {
	var out []string
	for name, b := range base.Benchmarks {
		c, ok := cur.Benchmarks[name]
		if !ok {
			continue
		}
		if allowed := b.AllocsPerOp + b.AllocsPerOp/100 + 1; c.AllocsPerOp > allowed {
			out = append(out, fmt.Sprintf("%s: allocs/op %d -> %d (> %d, the 1%%+1 tolerance)",
				name, b.AllocsPerOp, c.AllocsPerOp, allowed))
		}
		if b.NsPerOp > 0 {
			pct := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
			if pct > maxRegressPct {
				out = append(out, fmt.Sprintf("%s: ns/op %.4g -> %.4g (%+.1f%% > %+.1f%%)",
					name, b.NsPerOp, c.NsPerOp, pct, maxRegressPct))
			}
		}
	}
	return out
}

// ReadTrajectory loads a trajectory file; a missing file yields an
// empty trajectory and an os.IsNotExist error the caller may ignore.
func ReadTrajectory(path string) (Trajectory, error) {
	var t Trajectory
	data, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return t, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// WriteTrajectory stores the trajectory, indented for reviewable diffs.
func WriteTrajectory(path string, t Trajectory) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
