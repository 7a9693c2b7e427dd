// Command perfbench is the repository's serving benchmark. It runs the
// real lpdag-serve stack (engine pool, HTTP server, campaign and shard
// handlers, durable session store) inside its own process on loopback
// listeners, drives it with a closed loop of nproc clients, checks every
// reply, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload analyze-batch|session-durable|campaign-shard
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
// latency_p50_ms, latency_p99_ms, ok_share, cpu_ms_per_op, peak_rss_mb).
// With --trace 1 the run is split into an untraced and a traced half and
// the metrics are the per-layer ones. See README.md.
//
// Exit status: 0 when every output checked out, 1 when a check failed
// (the result line still prints) or the run could not complete, 2 on
// usage errors, 130 when interrupted by SIGINT or SIGTERM. Every exit
// path shuts down the listeners, the engine and the session store and
// removes the temporary directories.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: analyze-batch | session-durable | campaign-shard")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "measured seconds")
		trace   = fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
		tmp     = fs.String("tmp", ".bench_build", "directory for temporary session stores and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		tmp:      *tmp,
		log:      stdout,
	}
	res, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*tmp, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		n := min(len(res.spans), maxSpansWritten)
		if err := writeSpans(path, res.spans[:n]); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s (first %d of %d)\n", path, n, len(res.spans))
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}
