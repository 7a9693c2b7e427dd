// Command lpdag-experiments regenerates the tables and figures of the
// evaluation of Serrano et al. (DATE 2016), plus the extension studies
// of this reproduction (analysis-variant ablation and the
// analysis-vs-simulation pessimism gap).
//
// Usage:
//
//	lpdag-experiments -tables                 # Tables I, II, III
//	lpdag-experiments -fig2 -m 4 -sets 300    # Figure 2(a), full scale
//	lpdag-experiments -fig2 -m 8 -sets 50 -csv fig2b.csv
//	lpdag-experiments -group2 -m 4 -sets 100  # Section VI-B, group 2
//	lpdag-experiments -tasks-sweep -m 16      # Fig 2(c), alt. reading
//	lpdag-experiments -timing                 # Section VI-B runtimes
//	lpdag-experiments -variants -m 4          # refinement/ablation study
//	lpdag-experiments -pessimism -m 4 -u 2    # analysis vs simulation
//	lpdag-experiments -all -sets 50           # everything, reduced size
//
// The extended campaign orchestrator sweeps scenario families × core
// counts × utilizations in parallel, streaming results as JSON lines
// (byte-identical for any -workers / -shards):
//
//	lpdag-experiments -campaign -scenarios mixed,wide,deep \
//	    -ms 4,8,16,32,64 -sets 100 -workers 8 -jsonl out.jsonl -progress
//	lpdag-experiments -campaign -resume out.partial.jsonl -jsonl out.jsonl
//	lpdag-experiments -campaign -cluster http://host1:8080,http://host2:8080 \
//	    -jsonl out.jsonl        # same bytes, computed on remote workers
//	lpdag-experiments -soundness -points 2000   # sim-vs-analysis harness
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/experiments/cluster"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpdag-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tables     = fs.Bool("tables", false, "print Tables I, II and III")
		fig2       = fs.Bool("fig2", false, "run the Figure 2 utilization sweep")
		group2     = fs.Bool("group2", false, "run the group-2 (uniformly parallel) sweep")
		tasksSweep = fs.Bool("tasks-sweep", false, "run the task-count sweep (Figure 2(c) alternative reading)")
		timing     = fs.Bool("timing", false, "measure analysis runtimes for m = 4, 8, 16")
		variants   = fs.Bool("variants", false, "run the analysis-variant ablation (final-NPR refinement, repeated-blocking term)")
		pessimism  = fs.Bool("pessimism", false, "run the analysis-vs-simulation pessimism study")
		all        = fs.Bool("all", false, "run everything")
		m          = fs.Int("m", 4, "cores for the sweeps")
		u          = fs.Float64("u", 2.0, "utilization for -pessimism")
		sets       = fs.Int("sets", 300, "task sets per grid point (paper: 300)")
		seed       = fs.Int64("seed", 2016, "base random seed")
		seqProb    = fs.Float64("seqprob", 0, "override mixed-group sequential-task probability")
		csvPath    = fs.String("csv", "", "also write the active sweep as CSV to this file")
		backend    = fs.String("backend", "combinatorial", "LP-ILP solver: combinatorial | paper-ilp")

		campaign  = fs.Bool("campaign", false, "run the parallel sharded sweep campaign")
		ms        = fs.String("ms", "4,8,16", "campaign core counts (comma-separated, up to 64)")
		ufracs    = fs.String("ufracs", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "campaign utilizations as fractions of m")
		scenarios = fs.String("scenarios", "mixed", "campaign scenario families (comma-separated; see -list-scenarios)")
		listScen  = fs.Bool("list-scenarios", false, "list the scenario registry and exit")
		workers   = fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
		shards    = fs.Int("shards", 0, "campaign shard count (0 = auto; never affects results)")
		jsonlPath = fs.String("jsonl", "", "stream campaign results as JSON lines to this file (- = stdout)")
		resume    = fs.String("resume", "", "resume a campaign from a partial JSONL file (same seed and grid)")
		progress  = fs.Bool("progress", false, "report campaign progress and ETA on stderr")

		clusterHosts = fs.String("cluster", "", "run the campaign on remote lpdag-serve workers (comma-separated base URLs, e.g. http://host1:8080,http://host2:8080); output is byte-identical to a local run")
		leaseTimeout = fs.Duration("lease-timeout", cluster.DefaultLeaseTimeout, "cluster shard lease: max stream silence before requeueing to another worker")
		shardRetries = fs.Int("shard-retries", cluster.DefaultMaxShardRetries, "cluster shard lease: failure requeues per shard before the campaign fails")
		maxLease     = fs.Int("max-lease-points", cluster.DefaultMaxShardPoints, "cluster shard lease: points per lease, at most the smallest -max-shard-points across the workers")

		soundness = fs.Bool("soundness", false, "run the simulation-vs-analysis soundness harness")
		points    = fs.Int("points", 1000, "generated points for -soundness")

		metricsAddr = fs.String("metrics-addr", "", "serve GET /metrics (Prometheus text) on this address while the run is active; empty = disabled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// A long campaign (local or coordinating a cluster) is watchable
	// from outside: -metrics-addr serves the lpdag_campaign_* and
	// lpdag_cluster_lease_* series on a side listener for its duration.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		reg.RegisterRuntime(time.Now())
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: -metrics-addr: %v\n", err)
			return 2
		}
		defer mln.Close()
		mmux := http.NewServeMux()
		mmux.Handle("GET /metrics", reg.Handler())
		fmt.Fprintf(stderr, "lpdag-experiments: metrics on http://%s/metrics\n", mln.Addr())
		msrv := &http.Server{Handler: mmux, ReadHeaderTimeout: 10 * time.Second}
		go msrv.Serve(mln)
	}

	var be core.Backend
	switch *backend {
	case "combinatorial":
		be = core.Combinatorial
	case "paper-ilp":
		be = core.PaperILP
	default:
		fmt.Fprintf(stderr, "lpdag-experiments: unknown backend %q\n", *backend)
		return 2
	}

	if *listScen {
		fmt.Fprintln(stdout, "scenario families:")
		for _, sc := range experiments.StandardScenarios() {
			fmt.Fprintf(stdout, "  %-12s group=%v shape=%v", sc.Name, sc.Group, sc.Shape)
			if sc.Beta > 0 || sc.UMax > 0 {
				fmt.Fprintf(stdout, " u∈[%.2g,%.2g]", sc.Beta, sc.UMax)
			}
			if sc.NPRSplit > 0 {
				fmt.Fprintf(stdout, " npr-split=%d", sc.NPRSplit)
			}
			if sc.NPRCoarsen > 0 {
				fmt.Fprintf(stdout, " npr-coarsen=%d", sc.NPRCoarsen)
			}
			fmt.Fprintln(stdout)
		}
		return 0
	}

	ran := false
	if *campaign {
		ran = true
		code := runCampaign(campaignArgs{
			seed: *seed, ms: *ms, ufracs: *ufracs, scenarios: *scenarios,
			sets: *sets, workers: *workers, shards: *shards, backend: be,
			jsonlPath: *jsonlPath, csvPath: *csvPath, resume: *resume,
			progress: *progress, cluster: *clusterHosts,
			leaseTimeout: *leaseTimeout, shardRetries: *shardRetries,
			maxLease: *maxLease, obs: reg,
		}, stdout, stderr)
		if code != 0 {
			return code
		}
	}
	if *soundness {
		ran = true
		rep, err := experiments.RunSoundness(experiments.SoundnessConfig{
			Seed: *seed, Points: *points, Backend: be, Workers: *workers,
		})
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: soundness: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "soundness: %d points, %d analyses, %d simulations, %d violations\n",
			rep.Points, rep.Analyses, rep.Sims, rep.TotalViolations)
		if rep.TotalViolations > 0 {
			for _, v := range rep.Violations {
				fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
			}
			return 1
		}
	}
	if *tables || *all {
		ran = true
		fmt.Fprintln(stdout, experiments.TableIText())
		fmt.Fprintln(stdout, experiments.TableIIText())
		fmt.Fprintln(stdout, experiments.TableIIIText())
	}
	if *fig2 || *all {
		ran = true
		cfg := experiments.PaperFig2Config(*m, *sets, *seed)
		cfg.Backend = be
		cfg.SeqProbOverride = *seqProb
		points := experiments.Figure2(cfg)
		title := fmt.Sprintf("Figure 2: %% schedulable task sets, m=%d (group 1, %d sets/point)", *m, *sets)
		fmt.Fprintln(stdout, experiments.CurveChart(title, points))
		fmt.Fprintln(stdout, experiments.CurveCSV(points))
		if issues := experiments.CheckCurveShape(points); len(issues) > 0 {
			fmt.Fprintln(stdout, "shape notes:")
			for _, s := range issues {
				fmt.Fprintln(stdout, "  -", s)
			}
		} else {
			fmt.Fprintln(stdout, "shape check: all qualitative properties of the paper hold")
		}
		if code := writeCSV(stderr, *csvPath, experiments.CurveCSV(points)); code != 0 {
			return code
		}
	}
	if *group2 || *all {
		ran = true
		cfg := experiments.PaperFig2Config(*m, *sets, *seed+1)
		cfg.Backend = be
		res := experiments.Group2(cfg)
		title := fmt.Sprintf("Group 2 (uniformly parallel), m=%d", *m)
		fmt.Fprintln(stdout, experiments.CurveChart(title, res.Points))
		fmt.Fprintf(stdout, "LP-ILP vs LP-max gap: mean %.2f%%, max %.2f%% (paper: \"very similar\")\n\n",
			res.MeanGap, res.MaxGap)
		if code := writeCSV(stderr, *csvPath, experiments.CurveCSV(res.Points)); code != 0 {
			return code
		}
	}
	if *tasksSweep || *all {
		ran = true
		cfg := experiments.TasksSweepConfig{
			M: *m, U: float64(*m) / 4, NStart: 2, NEnd: 16,
			SetsPerPoint: *sets, Seed: *seed + 2, Backend: be,
		}
		points := experiments.TasksSweep(cfg)
		fmt.Fprintf(stdout, "Task-count sweep (Figure 2(c) alternative reading), m=%d, U=%.1f\n",
			cfg.M, cfg.U)
		fmt.Fprint(stdout, experiments.TasksSweepCSV(points))
		fmt.Fprintln(stdout)
		if code := writeCSV(stderr, *csvPath, experiments.TasksSweepCSV(points)); code != 0 {
			return code
		}
	}
	if *variants || *all {
		ran = true
		cfg := experiments.PaperFig2Config(*m, *sets, *seed+4)
		cfg.Backend = be
		points := experiments.Variants(cfg)
		fmt.Fprintf(stdout, "Analysis-variant ablation, m=%d (%% schedulable)\n", *m)
		fmt.Fprint(stdout, experiments.VariantsCSV(points))
		fmt.Fprintln(stdout, "\n(+finalNPR = future-work (ii) refinement, sound;")
		fmt.Fprintln(stdout, " -noRepeatBlocking drops p·Δ^{m-1}, diagnostic only)")
		fmt.Fprintln(stdout)
		if code := writeCSV(stderr, *csvPath, experiments.VariantsCSV(points)); code != 0 {
			return code
		}
	}
	if *pessimism || *all {
		ran = true
		res := experiments.Pessimism(experiments.PessimismConfig{
			M: *m, U: *u, Sets: *sets, Seed: *seed + 5, Backend: be,
		})
		fmt.Fprintf(stdout, "Pessimism study, m=%d U=%.2f: %d sets, %d accepted, %d rejected,\n",
			*m, *u, res.Sets, res.Accepted, res.Rejected)
		fmt.Fprintf(stdout, "%d rejected sets survive synchronous-periodic simulation\n", res.RejectedAlive)
		fmt.Fprintf(stdout, "=> analysis pessimism at this point is at most %.1f%% of all sets\n", res.UpperBoundPct)
		fmt.Fprintln(stdout, "(simulation is a necessary test only; the true gap is smaller)")
		fmt.Fprintln(stdout)
	}
	if *timing || *all {
		ran = true
		res := experiments.Timing(experiments.TimingConfig{
			Ms: []int{4, 8, 16}, Sets: min(*sets, 20), Seed: *seed + 3, Backend: be,
		})
		fmt.Fprintln(stdout, "Analysis runtime (Section VI-B):")
		fmt.Fprint(stdout, experiments.TimingTable(res))
	}
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}

// campaignArgs bundles the -campaign flag values.
type campaignArgs struct {
	seed                  int64
	ms, ufracs, scenarios string
	sets, workers, shards int
	backend               core.Backend
	jsonlPath, csvPath    string
	resume                string
	progress              bool
	cluster               string
	leaseTimeout          time.Duration
	shardRetries          int
	maxLease              int
	obs                   *obs.Registry
}

func runCampaign(a campaignArgs, stdout, stderr io.Writer) int {
	msList, err := parseIntList(a.ms)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-experiments: -ms: %v\n", err)
		return 2
	}
	fracs, err := parseFloatList(a.ufracs)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-experiments: -ufracs: %v\n", err)
		return 2
	}
	var scens []experiments.Scenario
	for _, name := range strings.Split(a.scenarios, ",") {
		sc, err := experiments.ScenarioByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: %v\n", err)
			return 2
		}
		scens = append(scens, sc)
	}
	cfg := experiments.CampaignConfig{
		Seed: a.seed, Ms: msList, UFracs: fracs, SetsPerPoint: a.sets,
		Scenarios: scens, Backend: a.backend, Workers: a.workers, Shards: a.shards,
	}

	opts := experiments.RunOptions{Obs: a.obs}
	if a.resume != "" {
		f, err := os.Open(a.resume)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: -resume: %v\n", err)
			return 1
		}
		prior, err := experiments.ReadCampaignJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: -resume: %v\n", err)
			return 1
		}
		opts.Completed = prior
		fmt.Fprintf(stderr, "resuming: %d points carried over from %s\n", len(prior), a.resume)
	}

	var jsonlFile *os.File
	if a.jsonlPath == "-" {
		opts.JSONL = stdout
		// Keep stdout a pure JSONL stream (it must re-parse for
		// -resume): the human summary moves to stderr.
		stdout = stderr
	} else if a.jsonlPath != "" {
		jsonlFile, err = os.Create(a.jsonlPath)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: -jsonl: %v\n", err)
			return 1
		}
		defer jsonlFile.Close()
		opts.JSONL = jsonlFile
	}
	var csvFile *os.File
	if a.csvPath != "" {
		csvFile, err = os.Create(a.csvPath)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-experiments: -csv: %v\n", err)
			return 1
		}
		defer csvFile.Close()
		opts.CSV = csvFile
	}
	if a.progress {
		opts.OnProgress = func(p experiments.Progress) {
			fmt.Fprintf(stderr, "\rcampaign: %d/%d points (%.1f%%), elapsed %s, eta %s   ",
				p.Done, p.Total, 100*float64(p.Done)/float64(p.Total),
				p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprintln(stderr)
			}
		}
	}

	var results []experiments.PointResult
	if a.cluster != "" {
		var urls []string
		for _, h := range strings.Split(a.cluster, ",") {
			if h = strings.TrimSpace(h); h != "" {
				urls = append(urls, strings.TrimRight(h, "/"))
			}
		}
		results, err = cluster.Run(cluster.Config{
			Campaign: cfg, Workers: urls,
			LeaseTimeout: a.leaseTimeout, MaxShardRetries: a.shardRetries,
			Shards: a.shards, MaxLeasePoints: a.maxLease,
		}, opts)
	} else {
		results, err = experiments.RunCampaign(cfg, opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-experiments: campaign: %v\n", err)
		return 1
	}

	// Compact per-(scenario, m) summary: LP-ILP schedulability at the
	// ends of the utilization grid.
	fmt.Fprintf(stdout, "campaign: %d points (%d scenarios × %d core counts × %d utilizations), %d sets/point\n",
		len(results), len(scens), len(msList), len(fracs), cfg.SetsPerPoint)
	method := core.LPILP.String()
	fmt.Fprintf(stdout, "%-12s %4s %22s\n", "scenario", "m", method+" % (U low → high)")
	perKey := map[string][]experiments.PointResult{}
	var order []string
	for _, r := range results {
		key := fmt.Sprintf("%-12s %4d", r.Scenario, r.M)
		if _, ok := perKey[key]; !ok {
			order = append(order, key)
		}
		perKey[key] = append(perKey[key], r)
	}
	for _, key := range order {
		rs := perKey[key]
		first, last := rs[0], rs[len(rs)-1]
		fmt.Fprintf(stdout, "%s %10.1f → %.1f\n", key, first.Pct(method), last.Pct(method))
	}
	return 0
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func writeCSV(stderr io.Writer, path, content string) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintf(stderr, "lpdag-experiments: writing %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return 0
}
