package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/model"
)

// analyze-batch: POST /v1/analyze with JSON batches of 16 task sets
// drawn from a seeded pool of 512 (mixed population, U = 2.0, m = 8,
// lp-ilp). The sets recur while every request is decoded afresh. A pool
// of 64 sets differed in mean size by about 10 % from seed to seed, and
// the work per batch with it; 512 cut that to about 4 %. The cache holds
// 4,096 results, so every set stays cached once sent.
const (
	analyzePool   = 512
	analyzeBatch  = 16
	analyzeCores  = 8
	analyzeU      = 2.0
	analyzeWarmup = analyzePool / analyzeBatch // batches per client during set-up
	replayOps     = 200
)

func init() {
	register(workload{
		name:  "analyze-batch",
		setup: setupAnalyze,
	})
}

type analyzeBench struct {
	st   *stack
	tr   *tracer
	raws [][]byte       // pool task sets, as sent
	refs []*core.Report // core.Analyzer.Analyze of each pool set
	cl   []client
	sum  string

	mu       sync.Mutex
	recorded []analyzeOp // batches sent while tracing
}

func setupAnalyze(ctx context.Context, e env) (instance, error) {
	b := &analyzeBench{tr: e.tracer}
	g := gen.New(e.seed, gen.PaperParams(gen.GroupMixed))
	a, err := core.New(core.Options{Cores: analyzeCores, Method: core.LPILP})
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "analyze-batch pool=%d batch=%d m=%d u=%v seed=%d\n", analyzePool, analyzeBatch, analyzeCores, analyzeU, e.seed)
	for i := 0; i < analyzePool; i++ {
		ts := g.TaskSet(analyzeU)
		raw, err := ts.MarshalJSON()
		if err != nil {
			return nil, err
		}
		ref, err := a.Analyze(ctx, ts)
		if err != nil {
			return nil, err
		}
		h.Write(raw)
		b.raws = append(b.raws, raw)
		b.refs = append(b.refs, ref)
	}
	b.sum = hex.EncodeToString(h.Sum(nil))
	if b.st, err = startStack(e.tmp, stackOptions{tracer: e.tracer, tamper: e.tamper}); err != nil {
		return nil, err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		hc, _ := newHTTPClient()
		b.cl = append(b.cl, &analyzeClient{b: b, hc: hc, rng: rand.New(rand.NewSource(clientSeed(e.seed, i)))})
	}
	if err := warm(ctx, b.cl, analyzeWarmup); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// clientSeed derives client i's generator seed from the run seed.
func clientSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// warm runs n ops per client outside any measurement; a failed warm-up
// op fails the set-up.
func warm(ctx context.Context, clients []client, n int) error {
	for _, c := range clients {
		var rec recorder
		for j := 0; j < n; j++ {
			if err := c.step(ctx, &rec); err != nil {
				return err
			}
		}
		if f := countFailed(rec.samples); f > 0 {
			return fmt.Errorf("warm-up: %d of %d ops failed", f, len(rec.samples))
		}
	}
	return nil
}

func (b *analyzeBench) node() *stack      { return b.st }
func (b *analyzeBench) clients() []client { return b.cl }
func (b *analyzeBench) digest() string    { return b.sum }

func (b *analyzeBench) close() error {
	for _, c := range b.cl {
		c.(*analyzeClient).hc.CloseIdleConnections()
	}
	if b.st == nil {
		return nil
	}
	return b.st.close()
}

// verify has nothing left: every reply was checked against the pool's
// reference reports as it arrived.
func (b *analyzeBench) verify(context.Context) (int, error) { return 0, nil }

type analyzeClient struct {
	b    *analyzeBench
	hc   *http.Client
	rng  *rand.Rand
	body bytes.Buffer
	idx  [analyzeBatch]int
}

func (c *analyzeClient) step(ctx context.Context, rec *recorder) error {
	b := c.b
	for j := range c.idx {
		c.idx[j] = c.rng.Intn(analyzePool)
	}
	b.body(&c.body, c.idx[:])
	op := b.tr.newOp()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.st.url+"/v1/analyze", bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	t0 := time.Now()
	code, _, data, err := do(c.hc, req)
	d := time.Since(t0)
	if b.tr.enabled() {
		b.tr.client(op, t0, d)
		b.mu.Lock()
		if len(b.recorded) < replayOps && err == nil {
			b.recorded = append(b.recorded, analyzeOp{append([]int(nil), c.idx[:]...), data})
		}
		b.mu.Unlock()
	}
	ok := err == nil && code == http.StatusOK && checkAnalyzeReply(data, c.idx[:], b.refs) == nil
	rec.add(d, classOther, false, ok)
	return nil
}

// body renders the /v1/analyze request for the pool sets idx.
func (b *analyzeBench) body(buf *bytes.Buffer, idx []int) {
	buf.Reset()
	fmt.Fprintf(buf, `{"cores":%d,"method":"lp-ilp","requests":[`, analyzeCores)
	for j, i := range idx {
		if j > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"taskset":`)
		buf.Write(b.raws[i])
		buf.WriteByte('}')
	}
	buf.WriteString(`]}`)
}

// checkAnalyzeReply compares every task's response time, Δm, Δm+1 and
// verdict with the reference report of the pool set sent in its slot.
func checkAnalyzeReply(data []byte, idx []int, refs []*core.Report) error {
	var rep analyzeResponseWire
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	if len(rep.Results) != len(idx) {
		return fmt.Errorf("%d results for %d sets", len(rep.Results), len(idx))
	}
	for j, res := range rep.Results {
		ref := refs[idx[j]]
		if res.Error != "" {
			return fmt.Errorf("result %d: %s", j, res.Error)
		}
		if err := compareReport(res, ref); err != nil {
			return fmt.Errorf("result %d: %w", j, err)
		}
	}
	return nil
}

// taskVerdict is the checked part of one task's report.
type taskVerdict struct {
	name                  string
	schedulable           bool
	responseTime, dm, dm1 int64
}

// compareReport checks a served report against a reference analysis.
func compareReport(got analyzeResultWire, ref *core.Report) error {
	sched, tasks := got.verdicts()
	if sched != ref.Schedulable || len(tasks) != len(ref.Tasks) {
		return fmt.Errorf("verdict %v over %d tasks, reference %v over %d", sched, len(tasks), ref.Schedulable, len(ref.Tasks))
	}
	for k, got := range tasks {
		want := ref.Tasks[k]
		if got != (taskVerdict{want.Name, want.Schedulable, want.ResponseTime, want.DeltaM, want.DeltaM1}) {
			return fmt.Errorf("task %d: got %+v, reference %+v", k, got, want)
		}
	}
	return nil
}

// analyzeOp is one batch sent while tracing and the reply it got.
type analyzeOp struct {
	idx   []int
	reply []byte
}

// replay decodes, rebuilds and re-analyzes the batches sent while
// tracing, through the request envelope, model, dag and core, and
// re-encodes their replies.
func (b *analyzeBench) replay(ctx context.Context, m layerValues) error {
	b.mu.Lock()
	ops := b.recorded
	b.mu.Unlock()
	if len(ops) == 0 {
		return fmt.Errorf("no traced batches recorded")
	}
	var raws [][]byte
	var reqs [][]byte
	for _, op := range ops {
		var buf bytes.Buffer
		b.body(&buf, op.idx)
		reqs = append(reqs, buf.Bytes())
		for _, i := range op.idx {
			raws = append(raws, b.raws[i])
		}
	}
	t0 := time.Now()
	for _, body := range reqs {
		var req analyzeRequestWire
		if err := decodeRequest(body, &req); err != nil {
			return err
		}
	}
	m["engine.http.request_decode_ms"] = msPer(time.Since(t0), len(ops))
	var enc encodeTimer
	for _, op := range ops {
		var rep analyzeResponseWire
		if err := json.Unmarshal(op.reply, &rep); err != nil {
			return err
		}
		if err := enc.encode(rep, op.reply); err != nil {
			return err
		}
	}
	m.encoded(&enc, len(ops))
	sets, _, err := replayDecode(m, raws, nil, len(ops))
	if err != nil {
		return err
	}
	replayGraphs(m, setsGraphs(sets), len(ops))
	a, err := core.New(core.Options{Cores: analyzeCores, Method: core.LPILP})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, ts := range sets {
		if _, err := a.Analyze(ctx, ts); err != nil {
			return err
		}
	}
	m["core.analyze_ms_per_set"] = msPer(time.Since(t0), len(sets))
	// engine.AnalyzeBatch keeps at most Workers jobs of a batch in flight.
	m["_submitters"] = float64(min(runtime.NumCPU(), analyzeBatch))
	return nil
}

// replayDecode times TaskSet.UnmarshalJSON over setRaws and
// Task.UnmarshalJSON over taskRaws (ops ops' worth) and counts their
// allocations.
func replayDecode(m layerValues, setRaws, taskRaws [][]byte, ops int) ([]*model.TaskSet, []*model.Task, error) {
	sets := make([]*model.TaskSet, len(setRaws))
	tasks := make([]*model.Task, len(taskRaws))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i, raw := range setRaws {
		sets[i] = new(model.TaskSet)
		if err := sets[i].UnmarshalJSON(raw); err != nil {
			return nil, nil, err
		}
	}
	for i, raw := range taskRaws {
		tasks[i] = new(model.Task)
		if err := tasks[i].UnmarshalJSON(raw); err != nil {
			return nil, nil, err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["model.decode_ms_per_op"] = msPer(d, ops)
	m["model.decode_allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ops))
	return sets, tasks, nil
}

func setsGraphs(sets []*model.TaskSet) []*dag.Graph {
	var gs []*dag.Graph
	for _, ts := range sets {
		for _, t := range ts.Tasks {
			gs = append(gs, t.G)
		}
	}
	return gs
}

// replayGraphs times dag.Builder.Build and Graph.Fingerprint on fresh
// copies of graphs (ops ops' worth).
func replayGraphs(m layerValues, graphs []*dag.Graph, ops int) {
	builders := make([]dag.Builder, len(graphs))
	nodes := 0
	for i, g := range graphs {
		for _, c := range g.WCETs() {
			builders[i].AddNode(c)
		}
		for _, e := range g.Edges() {
			builders[i].AddEdge(e[0], e[1])
		}
		nodes += g.N()
	}
	built := make([]*dag.Graph, len(graphs))
	t0 := time.Now()
	for i := range builders {
		built[i] = builders[i].MustBuild()
	}
	m["dag.build_ms_per_op"] = msPer(time.Since(t0), ops)
	t0 = time.Now()
	for _, g := range built {
		_ = g.Fingerprint()
	}
	m["dag.fingerprint_ms_per_op"] = msPer(time.Since(t0), ops)
	m["dag.nodes_per_op"] = ratio(float64(nodes), float64(ops))
}

// msPer is d in milliseconds divided by n.
func msPer(d time.Duration, n int) float64 { return ratio(float64(d)/1e6, float64(n)) }
