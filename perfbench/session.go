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
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/session"
)

// session-durable: each client runs back-to-back conversations on its
// own durable session: create with a 16-task set, a seeded mix of edit
// batches and reads, a long-NPR blocker that makes the set
// unschedulable, a repair query, more mix, a repair with apply, a final
// report, and a delete.
const (
	sessPool     = 32 // base 16-task sets
	sessExtras   = 32 // tasks for add edits and admit probes
	sessTasks    = 16
	sessCores    = 8
	sessU        = 2.0
	sessMix      = 8 // mixed ops before and after the blocker
	sessWarmup   = 2 + 2*sessMix + 4
	replayConvs  = 40
	blockerWCET  = 5000
	blockerRange = 100000
)

func init() {
	register(workload{
		name:  "session-durable",
		setup: setupSession,
	})
}

// sessKind is one conversation step.
type sessKind uint8

const (
	kCreate sessKind = iota
	kMixWrite
	kMixRead
	kBlocker
	kRepairQuery
	kRepairApply
	kFinalReport
	kDelete
)

// conversationPlan is the fixed skeleton every conversation follows;
// the mixed steps are drawn from the client's generator, half writes and
// half reads.
func conversationPlan(rng *rand.Rand) []sessKind {
	plan := []sessKind{kCreate}
	mix := func() {
		for i := 0; i < sessMix; i++ {
			if rng.Intn(2) == 0 {
				plan = append(plan, kMixWrite)
			} else {
				plan = append(plan, kMixRead)
			}
		}
	}
	mix()
	plan = append(plan, kBlocker, kRepairQuery)
	mix()
	return append(plan, kRepairApply, kFinalReport, kDelete)
}

type sessBench struct {
	st       *stack
	tr       *tracer
	bases    [][]*model.Task
	baseRaws [][]byte
	extras   []*model.Task
	// extraTail is each extra task's JSON after its name, so a request
	// names the task without re-encoding it.
	extraTail  [][]byte
	blocker    *model.Task
	blockerRaw []byte
	cl         []client
	sum        string

	// ref analyzes a conversation's final task list from scratch.
	ref *core.Analyzer

	mu      sync.Mutex
	convs   []*convLog   // conversations recorded while tracing
	commits atomic.Int64 // committed writes while tracing (creates included)
}

func setupSession(ctx context.Context, e env) (instance, error) {
	b := &sessBench{tr: e.tracer}
	var err error
	if b.ref, err = core.New(core.Options{Cores: sessCores, Method: core.LPILP}); err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "session-durable pool=%d extras=%d n=%d m=%d u=%v seed=%d\n", sessPool, sessExtras, sessTasks, sessCores, sessU, e.seed)
	g := gen.New(e.seed, gen.PaperParams(gen.GroupMixed))
	for i := 0; i < sessPool; i++ {
		ts := g.TaskSetN(sessTasks, sessU)
		raw, err := ts.MarshalJSON()
		if err != nil {
			return nil, err
		}
		h.Write(raw)
		b.bases = append(b.bases, ts.Tasks)
		b.baseRaws = append(b.baseRaws, raw)
	}
	ex := g.TaskSetN(sessExtras, sessU)
	for _, t := range ex.Tasks {
		raw, err := t.MarshalJSON()
		if err != nil {
			return nil, err
		}
		h.Write(raw)
		var probe struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, err
		}
		prefix := []byte(`{"name":` + strconv.Quote(probe.Name))
		if !bytes.HasPrefix(raw, prefix) {
			return nil, fmt.Errorf("unexpected task encoding %.40s", raw)
		}
		b.extras = append(b.extras, t)
		b.extraTail = append(b.extraTail, raw[len(prefix):])
	}
	var bld dag.Builder
	bld.AddNode(blockerWCET)
	bg, err := bld.Build()
	if err != nil {
		return nil, err
	}
	b.blocker = &model.Task{Name: "blocker", G: bg, Deadline: blockerRange, Period: blockerRange}
	if b.blockerRaw, err = b.blocker.MarshalJSON(); err != nil {
		return nil, err
	}
	b.sum = hex.EncodeToString(h.Sum(nil))

	if b.st, err = startStack(e.tmp, stackOptions{durable: true, tracer: e.tracer, tamper: e.tamper}); err != nil {
		return nil, err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		hc, _ := newHTTPClient()
		b.cl = append(b.cl, &sessClient{b: b, hc: hc, rng: rand.New(rand.NewSource(clientSeed(e.seed, i)))})
	}
	if err := warm(ctx, b.cl, sessWarmup); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *sessBench) node() *stack      { return b.st }
func (b *sessBench) clients() []client { return b.cl }
func (b *sessBench) digest() string    { return b.sum }

func (b *sessBench) close() error {
	for _, c := range b.cl {
		c.(*sessClient).hc.CloseIdleConnections()
	}
	if b.st == nil {
		return nil
	}
	return b.st.close()
}

// taskJSON renders extra task i under name.
func (b *sessBench) taskJSON(i int, name string) []byte {
	out := []byte(`{"name":` + strconv.Quote(name))
	return append(out, b.extraTail[i]...)
}

// sessOp is one recorded request of a traced conversation, in the form
// the session layer's own API takes.
type sessOp struct {
	kind     sessKind
	edits    []session.Edit
	task     *model.Task // admit probe
	index    int         // sensitivity target
	seed     int64       // repair tie-break
	setRaw   []byte      // create: the task set sent
	taskRaws [][]byte    // tasks sent (add edits, admit probe)
	body     []byte      // request body sent
	reply    []byte      // reply body served
}

// convLog is one traced conversation.
type convLog struct {
	base  []*model.Task
	ops   []sessOp
	final []*model.Task
}

type sessClient struct {
	b   *sessBench
	hc  *http.Client
	rng *rand.Rand

	plan   []sessKind
	pos    int
	id     string
	epoch  uint64
	mirror []*model.Task // the task list the session should hold
	added  []string      // names of the extras currently in the session
	names  int
	log    *convLog
}

// sessReq is one request of a conversation step.
type sessReq struct {
	method, path string
	body         []byte
	class        opClass
	repair       bool
}

func (c *sessClient) step(ctx context.Context, rec *recorder) error {
	if c.pos == 0 || c.pos >= len(c.plan) {
		c.plan, c.pos = conversationPlan(c.rng), 0
	}
	kind := c.plan[c.pos]
	op := sessOp{kind: kind}
	var r sessReq
	var next []*model.Task // mirror after a committed write
	var added []string
	switch kind {
	case kCreate:
		k := c.rng.Intn(sessPool)
		c.mirror = append([]*model.Task(nil), c.b.bases[k]...)
		c.added, c.names = nil, 0
		op.setRaw = c.b.baseRaws[k]
		body := fmt.Appendf(nil, `{"cores":%d,"method":"lp-ilp","taskset":%s}`, sessCores, op.setRaw)
		r = sessReq{http.MethodPost, "/v1/sessions", body, classOther, false}
		if c.b.tr.enabled() {
			c.log = &convLog{base: c.mirror}
		} else {
			c.log = nil
		}
	case kMixWrite, kBlocker:
		next, added = append([]*model.Task(nil), c.mirror...), append([]string(nil), c.added...)
		var parts [][]byte
		nEdits := 1
		if kind == kMixWrite {
			nEdits += c.rng.Intn(2)
		}
		for e := 0; e < nEdits; e++ {
			var ed session.Edit
			var js []byte
			switch x := c.rng.Intn(3); {
			case kind == kBlocker:
				t, raw := c.b.blocker, c.b.blockerRaw
				ed = session.Edit{Op: session.OpAdd, Task: t, At: -1}
				op.taskRaws = append(op.taskRaws, raw)
				js = fmt.Appendf(nil, `{"op":"add","task":%s}`, raw)
				next = append(next, t)
			case x == 0 && len(added) > 0:
				name := added[c.rng.Intn(len(added))]
				ed = session.Edit{Op: session.OpRemove, Name: name}
				js = fmt.Appendf(nil, `{"op":"remove","name":%q}`, name)
				next = removeTask(next, name)
				added = removeName(added, name)
			case x == 1:
				i := c.rng.Intn(sessExtras)
				c.names++
				name := "x" + strconv.Itoa(c.names)
				raw := c.b.taskJSON(i, name)
				t := &model.Task{Name: name, G: c.b.extras[i].G, Deadline: c.b.extras[i].Deadline, Period: c.b.extras[i].Period}
				ed = session.Edit{Op: session.OpAdd, Task: t, At: -1}
				op.taskRaws = append(op.taskRaws, raw)
				js = fmt.Appendf(nil, `{"op":"add","task":%s}`, raw)
				next = append(next, t)
				added = append(added, name)
			default:
				// A move to its own index is no mutation; pick another.
				from, to := c.rng.Intn(len(next)), c.rng.Intn(len(next)-1)
				if to >= from {
					to++
				}
				ed = session.Edit{Op: session.OpSetPriority, From: from, To: to}
				js = fmt.Appendf(nil, `{"op":"set_priority","from":%d,"to":%d}`, from, to)
				next = movePriority(next, from, to)
			}
			op.edits = append(op.edits, ed)
			parts = append(parts, js)
		}
		body := append([]byte(`{"edits":[`), bytes.Join(parts, []byte(","))...)
		body = append(body, "]}"...)
		r = sessReq{http.MethodPost, "/v1/sessions/" + c.id + "/edits", body, classWrite, false}
	case kMixRead:
		switch x := c.rng.Intn(5); {
		case x < 2:
			r = sessReq{http.MethodGet, "/v1/sessions/" + c.id + "/report", nil, classRead, false}
			op.kind = kFinalReport // replayed as a plain report
		case x < 4:
			i := c.rng.Intn(sessExtras)
			raw := c.b.taskJSON(i, "probe")
			op.task = &model.Task{Name: "probe", G: c.b.extras[i].G, Deadline: c.b.extras[i].Deadline, Period: c.b.extras[i].Period}
			op.taskRaws = [][]byte{raw}
			r = sessReq{http.MethodPost, "/v1/sessions/" + c.id + "/admit", fmt.Appendf(nil, `{"task":%s}`, raw), classRead, false}
		default:
			op.index = c.rng.Intn(len(c.mirror))
			r = sessReq{http.MethodPost, "/v1/sessions/" + c.id + "/sensitivity", fmt.Appendf(nil, `{"index":%d}`, op.index), classRead, false}
		}
	case kRepairQuery, kRepairApply:
		op.seed = c.rng.Int63n(1 << 20)
		body := fmt.Appendf(nil, `{"seed":%d}`, op.seed)
		class := classRead
		if kind == kRepairApply {
			body = fmt.Appendf(nil, `{"seed":%d,"apply":true}`, op.seed)
			class = classWrite
		}
		r = sessReq{http.MethodPost, "/v1/sessions/" + c.id + "/repair", body, class, true}
	case kFinalReport:
		r = sessReq{http.MethodGet, "/v1/sessions/" + c.id + "/report", nil, classRead, false}
	case kDelete:
		r = sessReq{http.MethodDelete, "/v1/sessions/" + c.id, nil, classOther, false}
	}

	code, hdr, data, d, err := c.send(ctx, r)
	if err != nil {
		return err
	}
	ok := c.apply(kind, code, hdr, data, next, added, uint64(len(op.edits))) == nil
	rec.add(d, r.class, r.repair, ok)
	if !ok {
		c.abandon(ctx)
		return nil
	}
	if c.log != nil {
		op.body, op.reply = r.body, data
		c.log.ops = append(c.log.ops, op)
	}
	c.pos++
	return nil
}

// send issues one request, timing the round trip; transport failures
// come back as status 0.
func (c *sessClient) send(ctx context.Context, r sessReq) (int, http.Header, []byte, time.Duration, error) {
	var body *bytes.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.b.st.url+r.path, body)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	op := c.b.tr.newOp()
	req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	t0 := time.Now()
	code, hdr, data, err := do(c.hc, req)
	d := time.Since(t0)
	c.b.tr.client(op, t0, d)
	if err != nil {
		return 0, nil, nil, d, nil
	}
	return code, hdr, data, d, nil
}

// apply checks one reply and advances the client's view of the session;
// an error fails the op.
// A committed edit batch must raise the epoch by its edit count (the
// session counts mutations, one per edit); an applied repair by one.
func (c *sessClient) apply(kind sessKind, code int, hdr http.Header, data []byte, next []*model.Task, added []string, edits uint64) error {
	want := http.StatusOK
	switch kind {
	case kCreate:
		want = http.StatusCreated
	case kDelete:
		want = http.StatusNoContent
	}
	if code != want {
		return fmt.Errorf("status %d: %.200s", code, data)
	}
	epoch := func() (uint64, error) {
		return strconv.ParseUint(hdr.Get("X-Lpdag-Session-Epoch"), 10, 64)
	}
	same := func() error {
		e, err := epoch()
		if err != nil {
			return err
		}
		if e != c.epoch {
			return fmt.Errorf("epoch %d after a read, want %d", e, c.epoch)
		}
		return nil
	}
	bumped := func(by uint64) error {
		e, err := epoch()
		if err != nil {
			return err
		}
		if e != c.epoch+by {
			return fmt.Errorf("epoch %d after a committed write, want %d", e, c.epoch+by)
		}
		c.epoch = e
		if c.b.tr.enabled() {
			c.b.commits.Add(1)
		}
		return nil
	}
	switch kind {
	case kCreate:
		var rep struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return err
		}
		e, err := epoch()
		if err != nil {
			return err
		}
		c.id, c.epoch = rep.ID, e
		if c.b.tr.enabled() {
			c.b.commits.Add(1)
		}
	case kMixWrite, kBlocker:
		if err := bumped(edits); err != nil {
			return err
		}
		c.mirror, c.added = next, added
	case kMixRead, kRepairQuery:
		if hdr.Get("X-Lpdag-Session-Epoch") != "" { // sensitivity answers carry none
			if err := same(); err != nil {
				return err
			}
		}
	case kRepairApply:
		var rep struct {
			Applied    bool `json:"applied"`
			Transforms []struct {
				Op     string `json:"op"`
				Task   string `json:"task"`
				MaxNPR int64  `json:"max_npr"`
				To     int    `json:"to"`
			} `json:"transforms"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return err
		}
		if !rep.Applied {
			return same()
		}
		trs := make([]repair.Transform, len(rep.Transforms))
		for i, t := range rep.Transforms {
			o, err := repair.ParseOp(t.Op)
			if err != nil {
				return err
			}
			trs[i] = repair.Transform{Op: o, Task: t.Task, MaxNPR: t.MaxNPR, To: t.To}
		}
		out, err := repair.Apply(c.mirror, trs)
		if err != nil {
			return err
		}
		if err := bumped(1); err != nil {
			return err
		}
		c.mirror = out
	case kFinalReport:
		if err := same(); err != nil {
			return err
		}
		var rep sessionReplyWire
		if err := json.Unmarshal(data, &rep); err != nil {
			return err
		}
		if rep.Report == nil {
			return fmt.Errorf("report reply without a report")
		}
		// The op's round trip is already timed; the reference analysis
		// runs outside it.
		ref, err := c.b.ref.Analyze(context.Background(), &model.TaskSet{Tasks: c.mirror})
		if err != nil {
			return err
		}
		if err := compareReport(*rep.Report, ref); err != nil {
			return fmt.Errorf("final report: %w", err)
		}
	case kDelete:
		if c.log != nil {
			c.log.final = c.mirror
			c.b.mu.Lock()
			if len(c.b.convs) < replayConvs {
				c.b.convs = append(c.b.convs, c.log)
			}
			c.b.mu.Unlock()
			c.log = nil
		}
		c.id = ""
	}
	return nil
}

// abandon drops a conversation after a failed op: the client's view can
// no longer be trusted, so it deletes the session (best effort, not
// measured) and starts over.
func (c *sessClient) abandon(ctx context.Context) {
	if c.id != "" {
		if req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.b.st.url+"/v1/sessions/"+c.id, nil); err == nil {
			do(c.hc, req)
		}
	}
	c.id, c.pos, c.log = "", 0, nil
}

func removeTask(tasks []*model.Task, name string) []*model.Task {
	for i, t := range tasks {
		if t.Name == name {
			return append(tasks[:i:i], tasks[i+1:]...)
		}
	}
	return tasks
}

func removeName(names []string, name string) []string {
	for i, n := range names {
		if n == name {
			return append(names[:i:i], names[i+1:]...)
		}
	}
	return names
}

// movePriority mirrors session.SetPriority: the task at from ends up at
// index to, the tasks between shift by one.
func movePriority(tasks []*model.Task, from, to int) []*model.Task {
	t := tasks[from]
	out := append(tasks[:from:from], tasks[from+1:]...)
	out = append(out[:to:to], append([]*model.Task{t}, out[to:]...)...)
	return out
}

// verify stops the node and reopens its session directory: the live
// sessions must come back at the epochs their clients last saw, and
// nothing else.
func (b *sessBench) verify(context.Context) (int, error) {
	failed := 0
	live := map[string]uint64{}
	for _, c := range b.cl {
		if sc := c.(*sessClient); sc.id != "" {
			live[sc.id] = sc.epoch
		}
	}
	if err := b.st.stopServing(); err != nil {
		return 0, err
	}
	st, err := engine.OpenSessionStore(b.st.storeDir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	rec := st.Recovered()
	for _, snap := range rec {
		if e, ok := live[snap.ID]; !ok || e != snap.Epoch {
			failed++
		}
		delete(live, snap.ID)
	}
	return failed + len(live), nil
}

// replay runs the traced conversations through session.Session and a
// scratch SessionStore directly, with an analysis trace of their own.
func (b *sessBench) replay(ctx context.Context, m layerValues) error {
	b.mu.Lock()
	convs := b.convs
	b.mu.Unlock()
	if len(convs) == 0 {
		return fmt.Errorf("no traced conversations recorded")
	}
	var setRaws, taskRaws [][]byte
	ops := 0
	for _, cv := range convs {
		ops += len(cv.ops)
		for _, o := range cv.ops {
			if o.setRaw != nil {
				setRaws = append(setRaws, o.setRaw)
			}
			taskRaws = append(taskRaws, o.taskRaws...)
		}
	}
	sets, tasks, err := replayDecode(m, setRaws, taskRaws, ops)
	if err != nil {
		return err
	}
	graphs := setsGraphs(sets)
	for _, t := range tasks {
		graphs = append(graphs, t.G)
	}
	replayGraphs(m, graphs, ops)
	if err := replayWire(m, convs, ops); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(b.st.dir, "replay-")
	if err != nil {
		return err
	}
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	reg := obs.NewRegistry()
	trc := obs.NewTrace(reg)
	var report, admit, encode, appendT time.Duration
	var nReport, nAdmit, nSnap, snapBytes int
	var buf []byte
	persist := func(s *session.Session, id string) error {
		snap := s.Snapshot(id, 0)
		t0 := time.Now()
		buf, err = snap.Append(buf[:0])
		encode += time.Since(t0)
		if err != nil {
			return err
		}
		snapBytes += len(buf)
		t0 = time.Now()
		err := st.Append(snap)
		appendT += time.Since(t0)
		nSnap++
		return err
	}
	for ci, cv := range convs {
		id := fmt.Sprintf("replay-%d", ci)
		s, err := session.New(core.Options{Cores: sessCores, Method: core.LPILP, Trace: trc}, cv.base...)
		if err != nil {
			return err
		}
		for _, o := range cv.ops {
			switch o.kind {
			case kCreate:
				if _, err = s.Report(ctx); err == nil {
					err = persist(s, id)
				}
			case kMixWrite, kBlocker:
				if err = s.Apply(o.edits); err == nil {
					if _, err = s.Report(ctx); err == nil {
						err = persist(s, id)
					}
				}
			case kFinalReport:
				t0 := time.Now()
				_, err = s.Report(ctx)
				report += time.Since(t0)
				nReport++
			case kMixRead:
				if o.task != nil {
					t0 := time.Now()
					_, err = s.TryAdmit(ctx, o.task, -1)
					admit += time.Since(t0)
					nAdmit++
				} else {
					_, err = s.Sensitivity(ctx, o.index, 10_000)
				}
			case kRepairQuery, kRepairApply:
				before := s.Epoch()
				if _, err = s.Repair(ctx, repair.Config{Seed: o.seed}, o.kind == kRepairApply); err == nil && s.Epoch() != before {
					err = persist(s, id)
				}
			case kDelete:
				err = st.Delete(id)
			}
			if err != nil {
				return fmt.Errorf("conversation %d: %w", ci, err)
			}
		}
	}
	m["session.report_ms"] = msPer(report, nReport)
	m["session.admit_ms"] = msPer(admit, nAdmit)
	m["session.snapshot_encode_ms"] = msPer(encode, nSnap)
	m["session.snapshot_bytes"] = ratio(float64(snapBytes), float64(nSnap))
	m["engine.sessionstore.append_ms"] = msPer(appendT, nSnap)
	m["engine.sessionstore.appends_per_write"] = ratio(m["_snapshots"], float64(b.commits.Load()))
	m["_appends_per_op"] = ratio(m["_snapshots"], m["_ops"])
	m["_submitters"] = 1 // one job per session op
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return err
	}
	snap, err := parseProm(&text)
	if err != nil {
		return err
	}
	m.fromTrace(snap, float64(ops))

	a, err := core.New(core.Options{Cores: sessCores, Method: core.LPILP})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, cv := range convs {
		if _, err := a.Analyze(ctx, &model.TaskSet{Tasks: cv.final}); err != nil {
			return err
		}
	}
	m["core.analyze_ms_per_set"] = msPer(time.Since(t0), len(convs))
	return nil
}

// replayWire decodes the traced conversations' request envelopes and
// re-encodes their replies the way the server's handlers do.
func replayWire(m layerValues, convs []*convLog, ops int) error {
	var dec time.Duration
	var enc encodeTimer
	for _, cv := range convs {
		for _, o := range cv.ops {
			var req any
			switch {
			case o.kind == kCreate:
				req = new(createSessionWire)
			case o.kind == kMixWrite || o.kind == kBlocker:
				req = new(sessionEditsWire)
			case o.kind == kMixRead && o.task != nil:
				req = new(sessionAdmitWire)
			case o.kind == kMixRead:
				req = new(sessionSensitivityWire)
			case o.kind == kRepairQuery || o.kind == kRepairApply:
				req = new(sessionRepairWire)
			}
			if req != nil {
				t0 := time.Now()
				err := decodeRequest(o.body, req)
				dec += time.Since(t0)
				if err != nil {
					return err
				}
			}
			switch o.kind {
			case kDelete:
			case kRepairQuery, kRepairApply:
				var rep repairResponseWire
				if err := json.Unmarshal(o.reply, &rep); err != nil {
					return err
				}
				if err := enc.encode(rep, o.reply); err != nil {
					return err
				}
			default:
				var rep sessionReplyWire
				if err := json.Unmarshal(o.reply, &rep); err != nil {
					return err
				}
				if err := enc.encode(rep.asServed(), o.reply); err != nil {
					return err
				}
			}
		}
	}
	m["engine.http.request_decode_ms"] = msPer(dec, ops)
	m.encoded(&enc, ops)
	return nil
}
