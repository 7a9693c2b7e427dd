package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/experiments/cluster"
	"repro/internal/model"
	"repro/internal/obs"
)

// campaign-shard: back-to-back 16-point campaigns (mixed and parallel ×
// m ∈ {4, 8} × 4 utilisations, 8 sets per point, all three methods),
// each sent by cluster.Run to the node's /v1/shard worker over loopback
// in the binary stream the coordinator negotiates. Every campaign has
// its own seed, so the analysis kernel does the work afresh.
const (
	campaignPoints  = 16
	campaignSets    = 8
	campaignWarmup  = 1 // campaigns per client during set-up
	replayCampaigns = 2
)

func init() {
	register(workload{
		name:  "campaign-shard",
		setup: setupCampaign,
	})
}

// campaignConfig is campaign k of client i.
func campaignConfig(seed int64, client, k int) (experiments.CampaignConfig, error) {
	var scs []experiments.Scenario
	for _, name := range []string{"mixed", "parallel"} {
		sc, err := experiments.ScenarioByName(name)
		if err != nil {
			return experiments.CampaignConfig{}, err
		}
		scs = append(scs, sc)
	}
	return experiments.CampaignConfig{
		Seed:         clientSeed(seed, client)*10_007 + int64(k),
		Ms:           []int{4, 8},
		UFracs:       []float64{0.2, 0.4, 0.6, 0.8},
		SetsPerPoint: campaignSets,
		Scenarios:    scs,
	}, nil
}

type campaignBench struct {
	st  *stack
	tr  *tracer
	cl  []client
	sum string
	// refs[i] is the JSONL of a local RunCampaign of client i's first
	// measured campaign.
	refs [][]byte

	mu       sync.Mutex
	recorded []experiments.CampaignConfig // campaigns sent while tracing
}

func setupCampaign(ctx context.Context, e env) (instance, error) {
	b := &campaignBench{tr: e.tracer}
	h := sha256.New()
	fmt.Fprintf(h, "campaign-shard points=%d sets=%d seed=%d\n", campaignPoints, campaignSets, e.seed)
	n := runtime.NumCPU()
	for i := 0; i < n; i++ {
		cfg, err := campaignConfig(e.seed, i, campaignWarmup)
		if err != nil {
			return nil, err
		}
		var ref bytes.Buffer
		if _, err := experiments.RunCampaign(cfg, experiments.RunOptions{Context: ctx, JSONL: &ref}); err != nil {
			return nil, err
		}
		h.Write(ref.Bytes())
		b.refs = append(b.refs, ref.Bytes())
	}
	b.sum = hex.EncodeToString(h.Sum(nil))
	var err error
	if b.st, err = startStack(e.tmp, stackOptions{tracer: e.tracer, tamper: e.tamper}); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		_, tr := newHTTPClient()
		b.cl = append(b.cl, &campaignClient{b: b, i: i, seed: e.seed, tr: tr})
	}
	if err := warm(ctx, b.cl, campaignWarmup); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *campaignBench) node() *stack      { return b.st }
func (b *campaignBench) clients() []client { return b.cl }
func (b *campaignBench) digest() string    { return b.sum }

func (b *campaignBench) close() error {
	for _, c := range b.cl {
		c.(*campaignClient).tr.CloseIdleConnections()
	}
	if b.st == nil {
		return nil
	}
	return b.st.close()
}

// verify has nothing left: every campaign was checked as it finished.
func (b *campaignBench) verify(context.Context) (int, error) { return 0, nil }

type campaignClient struct {
	b    *campaignBench
	i    int
	seed int64
	k    int // campaigns sent so far
	tr   *http.Transport
	out  bytes.Buffer
}

func (c *campaignClient) step(ctx context.Context, rec *recorder) error {
	b := c.b
	cfg, err := campaignConfig(c.seed, c.i, c.k)
	if err != nil {
		return err
	}
	points, err := cfg.Points()
	if err != nil {
		return err
	}
	op := b.tr.newOp()
	hc := &http.Client{Transport: opRoundTripper{base: c.tr, op: strconv.FormatUint(op, 10)}}
	c.out.Reset()
	t0 := time.Now()
	results, err := cluster.Run(cluster.Config{Campaign: cfg, Workers: []string{b.st.url}, Client: hc},
		experiments.RunOptions{Context: ctx, JSONL: &c.out})
	d := time.Since(t0)
	b.tr.client(op, t0, d)
	if b.tr.enabled() {
		b.mu.Lock()
		if len(b.recorded) < replayCampaigns {
			b.recorded = append(b.recorded, cfg)
		}
		b.mu.Unlock()
	}
	ok := err == nil && checkCampaign(cfg, points, results) == nil
	if ok && c.k == campaignWarmup {
		ok = bytes.Equal(c.out.Bytes(), b.refs[c.i])
	}
	c.k++
	rec.add(d, classOther, false, ok)
	return nil
}

// checkCampaign requires every grid point exactly once, each passing
// experiments.CheckResult.
func checkCampaign(cfg experiments.CampaignConfig, points []experiments.Point, results []experiments.PointResult) error {
	if len(results) != len(points) {
		return fmt.Errorf("%d results for %d points", len(results), len(points))
	}
	for i, pr := range results {
		if pr.Index != i {
			return fmt.Errorf("result %d has index %d", i, pr.Index)
		}
		if err := experiments.CheckResult(cfg, points, pr); err != nil {
			return err
		}
	}
	return nil
}

// replay recomputes the traced campaigns' points through gen, core (with
// an analysis trace of its own), experiments and the stream encoders.
func (b *campaignBench) replay(ctx context.Context, m layerValues) error {
	b.mu.Lock()
	cfgs := b.recorded
	b.mu.Unlock()
	if len(cfgs) == 0 {
		return fmt.Errorf("no traced campaigns recorded")
	}
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	reg := obs.NewRegistry()
	trc := obs.NewTrace(reg)
	var genT, computeT, analyzeT, jsonT, binT time.Duration
	var nSets, nAnalyzed, nPoints int
	var jbuf bytes.Buffer
	var bbuf []byte
	for _, cfg := range cfgs {
		points, err := cfg.Points()
		if err != nil {
			return err
		}
		for _, pt := range points {
			t0 := time.Now()
			res, err := experiments.RunCampaignSubset(cfg, []int{pt.Index}, experiments.RunOptions{Context: ctx, Engine: eng})
			computeT += time.Since(t0)
			if err != nil {
				return err
			}
			nPoints++
			t0 = time.Now()
			jbuf.Reset()
			if err := experiments.WritePointResult(&jbuf, res[0]); err != nil {
				return err
			}
			jsonT += time.Since(t0)
			t0 = time.Now()
			if bbuf, err = experiments.AppendPointResultBinary(bbuf[:0], res[0]); err != nil {
				return err
			}
			binT += time.Since(t0)

			sets := make([]*model.TaskSet, cfg.SetsPerPoint)
			t0 = time.Now()
			for si := range sets {
				sets[si] = pt.Scenario.TaskSet(experiments.SeedFor(cfg.Seed, pt.Index, si), pt.U)
			}
			genT += time.Since(t0)
			nSets += len(sets)
			for _, method := range core.Methods() {
				a, err := core.New(core.Options{Cores: pt.M, Method: method, Trace: trc})
				if err != nil {
					return err
				}
				t0 = time.Now()
				if _, err := a.ScheduleBatch(ctx, sets); err != nil {
					return err
				}
				analyzeT += time.Since(t0)
				nAnalyzed += len(sets)
			}
		}
	}
	ops := float64(len(cfgs))
	m["experiments.point_compute_ms"] = msPer(computeT, nPoints)
	m["experiments.jsonl_encode_us_per_point"] = 1e3 * msPer(jsonT, nPoints)
	m["experiments.bin_encode_us_per_point"] = 1e3 * msPer(binT, nPoints)
	m["gen.taskset_ms"] = msPer(genT, nSets)
	m["core.analyze_ms_per_set"] = msPer(analyzeT, nAnalyzed)
	m["_points_per_op"] = campaignPoints
	// cluster.Run plans 4 leases per worker; extra shard requests are
	// requeued leases.
	leases := len(experiments.PlanShards(campaignPoints, 4))
	// A lease's points are submitted at once by the worker's
	// RunCampaignSubset (up to 4 × Workers stripes).
	m["_submitters"] = float64(min(campaignPoints/leases, 4*runtime.NumCPU()))
	m["cluster.stream_bytes_per_point"] = ratio(m["_shard_bytes"], m["_ops"]*campaignPoints)
	m["cluster.lease_requeues"] = m["_shard_requests"] - float64(leases)*m["_ops"]
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return err
	}
	snap, err := parseProm(&text)
	if err != nil {
		return err
	}
	// The replay analyzes ops campaigns; rta.*_per_op are per campaign.
	m.fromTrace(snap, ops)
	return nil
}
