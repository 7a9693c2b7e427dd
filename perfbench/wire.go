package main

import (
	"bytes"
	"encoding/json"
	"time"
)

// Replicas of the /v1/ request and response bodies, field for field and
// tag for tag as the server declares them (internal/engine server.go and
// sessions_http.go). The replay decodes requests and re-encodes replies
// with them the way the server does, so the engine's own body decode and
// response encode get layer times although they sit inside the handler.
// A replayed encode is compared with the bytes the server sent; a
// mismatch means a replica fell behind the server and is reported.

type analyzeItemWire struct {
	TaskSet  json.RawMessage `json:"taskset"`
	Cores    *int            `json:"cores,omitempty"`
	Method   *string         `json:"method,omitempty"`
	Backend  *string         `json:"backend,omitempty"`
	FinalNPR *bool           `json:"final_npr,omitempty"`
}

type analyzeRequestWire struct {
	Cores    int               `json:"cores,omitempty"`
	Method   string            `json:"method,omitempty"`
	Backend  string            `json:"backend,omitempty"`
	FinalNPR bool              `json:"final_npr,omitempty"`
	Requests []analyzeItemWire `json:"requests"`
}

type taskReportWire struct {
	Name         string `json:"name"`
	Schedulable  bool   `json:"schedulable"`
	Analyzed     bool   `json:"analyzed"`
	ResponseTime int64  `json:"response_time"`
	Deadline     int64  `json:"deadline"`
	DeltaM       int64  `json:"delta_m"`
	DeltaM1      int64  `json:"delta_m1"`
	Preemptions  int64  `json:"preemptions"`
	Iterations   int    `json:"iterations"`
}

type analyzeResultWire struct {
	Error       string           `json:"error,omitempty"`
	Schedulable bool             `json:"schedulable"`
	Method      string           `json:"method,omitempty"`
	Cores       int              `json:"cores,omitempty"`
	Utilization float64          `json:"utilization,omitempty"`
	Tasks       []taskReportWire `json:"tasks,omitempty"`
}

// verdicts is the checked part of a report.
func (r analyzeResultWire) verdicts() (bool, []taskVerdict) {
	out := make([]taskVerdict, len(r.Tasks))
	for i, t := range r.Tasks {
		out[i] = taskVerdict{t.Name, t.Schedulable, t.ResponseTime, t.DeltaM, t.DeltaM1}
	}
	return r.Schedulable, out
}

type analyzeResponseWire struct {
	Results []analyzeResultWire `json:"results"`
}

type createSessionWire struct {
	TaskSet  json.RawMessage `json:"taskset,omitempty"`
	Cores    int             `json:"cores,omitempty"`
	Method   string          `json:"method,omitempty"`
	Backend  string          `json:"backend,omitempty"`
	FinalNPR bool            `json:"final_npr,omitempty"`
}

type sessionEditWire struct {
	Op     string          `json:"op"`
	Task   json.RawMessage `json:"task,omitempty"`
	At     *int            `json:"at,omitempty"`
	Index  *int            `json:"index,omitempty"`
	Name   string          `json:"name,omitempty"`
	From   *int            `json:"from,omitempty"`
	To     *int            `json:"to,omitempty"`
	Cores  int             `json:"cores,omitempty"`
	Method string          `json:"method,omitempty"`
}

type sessionEditsWire struct {
	Edits []sessionEditWire `json:"edits"`
}

type sessionAdmitWire struct {
	Task json.RawMessage `json:"task"`
	At   *int            `json:"at,omitempty"`
}

type sessionSensitivityWire struct {
	Index       *int   `json:"index,omitempty"`
	Name        string `json:"name,omitempty"`
	MaxPermille int    `json:"max_permille,omitempty"`
}

type sessionRepairWire struct {
	Strategy      string  `json:"strategy,omitempty"`
	MaxSteps      int     `json:"max_steps,omitempty"`
	Budgets       []int64 `json:"budgets,omitempty"`
	Coarsen       bool    `json:"coarsen,omitempty"`
	Reprioritize  bool    `json:"reprioritize,omitempty"`
	Beam          int     `json:"beam,omitempty"`
	MaxCandidates int     `json:"max_candidates,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	TimeoutMs     int     `json:"timeout_ms,omitempty"`
	Apply         bool    `json:"apply,omitempty"`
}

type transformWire struct {
	Op     string `json:"op"`
	Task   string `json:"task"`
	MaxNPR int64  `json:"max_npr,omitempty"`
	To     int    `json:"to,omitempty"`
}

type repairResponseWire struct {
	Fixed         bool              `json:"fixed"`
	Stopped       bool              `json:"stopped"`
	Applied       bool              `json:"applied"`
	Candidates    int               `json:"candidates"`
	FailingBefore int               `json:"failing_before"`
	FailingAfter  int               `json:"failing_after"`
	SlackBefore   int64             `json:"slack_before"`
	SlackAfter    int64             `json:"slack_after"`
	Transforms    []transformWire   `json:"transforms"`
	Report        analyzeResultWire `json:"report"`
}

// sessionReplyWire covers the session replies built as maps: create
// ({id, report}), report and edits ({report}), admit ({admitted,
// report}) and sensitivity ({permille}).
type sessionReplyWire struct {
	ID       *string            `json:"id"`
	Report   *analyzeResultWire `json:"report"`
	Admitted *bool              `json:"admitted"`
	Permille *int               `json:"permille"`
}

// asServed rebuilds the map the server encodes for this reply.
func (r sessionReplyWire) asServed() map[string]any {
	m := map[string]any{}
	if r.ID != nil {
		m["id"] = *r.ID
	}
	if r.Report != nil {
		m["report"] = *r.Report
	}
	if r.Admitted != nil {
		m["admitted"] = *r.Admitted
	}
	if r.Permille != nil {
		m["permille"] = *r.Permille
	}
	return m
}

// decodeRequest decodes body into v the way the server does.
func decodeRequest(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeTimer re-encodes replies the way the server's writeJSON does,
// timing the encodes and counting replies whose bytes differ.
type encodeTimer struct {
	buf        bytes.Buffer
	dur        time.Duration
	n, differs int
}

func (e *encodeTimer) encode(v any, served []byte) error {
	e.buf.Reset()
	t0 := time.Now()
	enc := json.NewEncoder(&e.buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	e.dur += time.Since(t0)
	e.n++
	if !bytes.Equal(e.buf.Bytes(), served) {
		e.differs++
	}
	return err
}
