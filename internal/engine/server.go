package engine

// HTTP front end of the engine: a stdlib-only JSON API served by
// cmd/lpdag-serve.
//
//	POST /v1/analyze   batch response-time analysis
//	POST /v1/simulate  discrete-event scheduler simulation
//	POST /v1/generate  random task-set generation (paper populations)
//	GET  /healthz      liveness probe
//	GET  /stats        engine + cache counters
//
// Every POST body is capped at ServerConfig.MaxBodyBytes and the number
// of concurrently served requests at MaxInFlight (excess requests get
// 503, the caller's signal to back off — the engine's own queue already
// provides backpressure per job).
//
// Every response body is JSON. The only binary bodies are the session
// hand-off ('S' snapshot frames, see internal/wire) and the /v1/shard
// stream a coordinator negotiates (internal/experiments/cluster).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ring"
)

// ServerConfig parameterises the HTTP handler.
type ServerConfig struct {
	// MaxBodyBytes caps a request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently served requests; 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// MaxBatch caps the task sets in one analyze batch; 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxSessions caps live analysis sessions; 0 means
	// DefaultMaxSessions.
	MaxSessions int
	// SessionTTL evicts sessions untouched for this long; 0 means
	// DefaultSessionTTL, negative disables expiry.
	SessionTTL time.Duration
	// SessionClock overrides the registry's time source (TTL tests).
	SessionClock func() time.Time
	// SessionStore, when non-nil, makes sessions durable: snapshots are
	// fsynced per committed edit batch and the unexpired sessions it
	// recovered are restored into the registry at construction.
	SessionStore *SessionStore
	// SelfURL is this node's advertised base URL (e.g.
	// "http://host:8080") on the session ring; required when Peers is
	// set and implicitly a ring member.
	SelfURL string
	// Peers are the base URLs of every session-plane node. A non-empty
	// list enables consistent-hash session routing: requests for ids
	// another node owns answer 307 + X-Lpdag-Session-Owner unless the
	// session is present locally (restored or handed off here).
	Peers []string
	// Obs, when non-nil, mounts GET /metrics (Prometheus text format,
	// deliberately outside the MaxInFlight semaphore — a scrape must
	// succeed while the server sheds) and registers the server-level
	// series (in-flight requests, sheds, draining flag, shard load).
	// Nil falls back to the engine's registry, so passing Config.Obs to
	// New is enough to get the full serving surface.
	Obs *obs.Registry
}

// Server limits. The per-job compute caps exist because the HTTP
// boundary is where untrusted sizes arrive: a single tiny request must
// not be able to pin a worker on an effectively unbounded simulation or
// generation (the library-level engine API deliberately stays
// uncapped — embedders control their own inputs).
const (
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB
	DefaultMaxInFlight  = 256
	DefaultMaxBatch     = 1024

	// MaxSimDuration bounds one simulation's horizon; at the paper's
	// time scales this is minutes of wall clock on one worker.
	MaxSimDuration = 100_000_000
	// MaxSimJobs bounds the released jobs of one simulation (applied
	// as the default when the request leaves max_jobs unset).
	MaxSimJobs = 10_000_000
	// MaxGenUtilization and MaxGenTasks bound one generated task set.
	MaxGenUtilization = 1024
	MaxGenTasks       = 4096
	// MaxCores bounds the core count of an analysis, simulation or
	// session, all of which allocate per core (campaigns keep their
	// tighter experiments.MaxCampaignCores).
	MaxCores = 1024
)

// checkCores rejects a core count above MaxCores. Counts below 1 are
// rejected by the analysis and the simulator before they allocate.
func checkCores(m int) error {
	if m > MaxCores {
		return fmt.Errorf("cores %d exceeds limit %d", m, MaxCores)
	}
	return nil
}

// Server dispatches HTTP requests onto an Engine. Beyond being the
// http.Handler for the engine endpoints it carries the node's worker
// state for cluster deployments: a draining flag (set by StartDraining
// when SIGTERM drain begins, reported by /healthz so coordinators stop
// scheduling here) and shard-load gauges fed by the /v1/shard handler
// (internal/experiments/cluster).
type Server struct {
	eng       *Engine
	cfg       ServerConfig
	sessions  *SessionRegistry
	inFlight  chan struct{}
	requests  uint64 // HTTP requests admitted (atomic)
	shed      uint64 // requests refused by the in-flight semaphore (atomic)
	writeErrs uint64 // response encode/write failures (atomic)
	start     time.Time

	draining     atomic.Bool
	activeShards atomic.Int64
	shardsServed atomic.Uint64
	mux          *http.ServeMux

	// Session-plane routing (nil ring = single node, no redirects).
	ring      *ring.Ring
	self      string
	redirects *obs.Counter
	handoffs  *obs.Counter
}

// NewServer returns the engine's HTTP server.
func NewServer(e *Engine, cfg ServerConfig) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Obs == nil {
		cfg.Obs = e.obsReg
	}
	s := &Server{eng: e, cfg: cfg, inFlight: make(chan struct{}, cfg.MaxInFlight), start: time.Now()}
	if len(cfg.Peers) > 0 {
		// SelfURL is implicitly a member: a peer list that omits the
		// node itself would make it own nothing and redirect everything,
		// including its own creates.
		s.self = cfg.SelfURL
		s.ring = ring.New(append(append([]string(nil), cfg.Peers...), cfg.SelfURL), 0)
	}
	s.sessions = NewSessionRegistry(e, SessionRegistryConfig{
		MaxSessions: cfg.MaxSessions, TTL: cfg.SessionTTL, Clock: cfg.SessionClock,
		Store: cfg.SessionStore,
		OwnsID: func(id string) bool {
			return s.ring == nil || s.ring.Owner(id) == s.self
		},
	})
	if cfg.SessionStore != nil {
		s.sessions.RestoreFromStore()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.limited(s.handleAnalyze))
	mux.HandleFunc("POST /v1/simulate", s.limited(s.handleSimulate))
	mux.HandleFunc("POST /v1/generate", s.limited(s.handleGenerate))
	mux.HandleFunc("POST /v1/sessions", s.limited(s.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/handoff", s.limited(s.handleSessionHandoff))
	mux.HandleFunc("GET /v1/sessions/{id}/report", s.limited(s.handleSessionReport))
	mux.HandleFunc("POST /v1/sessions/{id}/edits", s.limited(s.handleSessionEdits))
	mux.HandleFunc("POST /v1/sessions/{id}/admit", s.limited(s.handleSessionAdmit))
	mux.HandleFunc("POST /v1/sessions/{id}/sensitivity", s.limited(s.handleSessionSensitivity))
	mux.HandleFunc("POST /v1/sessions/{id}/repair", s.limited(s.handleSessionRepair))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.limited(s.handleSessionDelete))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	if reg := cfg.Obs; reg != nil {
		// Unlimited like /healthz and /stats: observability endpoints
		// must answer while the data plane sheds or drains.
		mux.Handle("GET /metrics", reg.Handler())
		reg.RegisterRuntime(s.start)
		reg.GaugeFunc("lpdag_http_in_flight",
			"Requests currently inside the admission semaphore.",
			func() float64 { return float64(len(s.inFlight)) })
		reg.CounterFunc("lpdag_http_requests_shed_total",
			"Requests refused with 503 by the in-flight semaphore.",
			func() float64 { return float64(atomic.LoadUint64(&s.shed)) })
		reg.CounterFunc("lpdag_http_write_errors_total",
			"Responses lost to encode or mid-body write failures.",
			func() float64 { return float64(atomic.LoadUint64(&s.writeErrs)) })
		reg.GaugeFunc("lpdag_server_draining",
			"1 while SIGTERM drain is in progress, else 0.",
			func() float64 {
				if s.Draining() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("lpdag_cluster_active_shards",
			"Shard leases currently executing on this worker.",
			func() float64 { return float64(s.activeShards.Load()) })
		reg.CounterFunc("lpdag_cluster_shards_served_total",
			"Shard leases this worker finished (completed or failed).",
			func() float64 { return float64(s.shardsServed.Load()) })
		s.redirects = reg.Counter("lpdag_session_redirects_total",
			"Session requests answered 307 to the owning ring member.")
		s.handoffs = reg.Counter("lpdag_session_handoffs_total",
			"Session snapshots accepted over POST /v1/sessions/handoff.")
	}
	s.mux = mux
	return s
}

// Sessions returns the server's session registry (embedders wanting
// programmatic access to the sessions the HTTP surface manages).
func (s *Server) Sessions() *SessionRegistry { return s.sessions }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDraining marks the node as draining: /healthz flips to 503
// "draining" immediately, and the shard endpoint refuses new leases, so
// cluster coordinators stop scheduling here while in-flight requests
// finish. It must be called when SIGTERM drain begins, not when the
// listener closes — a node that keeps reporting healthy through its
// drain window collects work it will never finish.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ShardStarted records a shard lease going active on this worker (load
// reporting for /healthz and /stats).
func (s *Server) ShardStarted() { s.activeShards.Add(1) }

// ShardFinished records a shard lease ending (completed or failed).
func (s *Server) ShardFinished() {
	s.activeShards.Add(-1)
	s.shardsServed.Add(1)
}

// limited wraps a handler with the in-flight semaphore and body cap.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inFlight <- struct{}{}:
			defer func() { <-s.inFlight }()
		default:
			atomic.AddUint64(&s.shed, 1)
			s.writeError(w, http.StatusServiceUnavailable, "server at capacity, retry later")
			return
		}
		atomic.AddUint64(&s.requests, 1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	}
}

// respBufPool holds the response-encode buffers shared by every
// endpoint: one buffer serves a whole JSON document, so the encode
// layer allocates O(1) per request in steady state.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v (indented, as this API has always rendered JSON)
// into a pooled buffer and writes it in one shot. A failure here has no
// in-band signal left — the status line is already committed — so it is
// counted in lpdag_http_write_errors_total rather than dropped: a
// broken-pipe storm (load balancer timeouts, dying clients) becomes
// diagnosable from /metrics.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Encode failed before any byte reached the wire, so a clean
		// error status is still possible (and still counts: the caller
		// lost a response either way).
		atomic.AddUint64(&s.writeErrs, 1)
		http.Error(w, fmt.Sprintf("response encoding failed: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		atomic.AddUint64(&s.writeErrs, 1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decode parses the body into v through DecodeJSON, writing the error
// reply on failure. It reports whether decoding succeeded.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	status, err := DecodeJSON(r.Body, v)
	if err != nil {
		s.writeError(w, status, "%v", err)
	}
	return err == nil
}

// DecodeJSON decodes one JSON request body into v, rejecting unknown
// fields. On failure it returns the status to answer (413 when the body
// overran its http.MaxBytesReader cap, 400 otherwise) and the error
// text. Every JSON endpoint of the /v1/ dialect decodes through it.
func DecodeJSON(body io.Reader, v any) (int, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("invalid request: %w", err)
	}
	return http.StatusOK, nil
}

// WriteJSONError writes a compact {"error": ...} reply for the
// handlers outside Server (campaign, shard).
func WriteJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ParseMethod maps the API wire spelling to a core.Method ("" =
// LP-ILP). Shared by every HTTP surface speaking the /v1/ dialect
// (including the campaign endpoint in internal/experiments).
func ParseMethod(s string) (core.Method, error) {
	switch s {
	case "", "lp-ilp":
		return core.LPILP, nil
	case "lp-max":
		return core.LPMax, nil
	case "fp-ideal":
		return core.FPIdeal, nil
	}
	return 0, fmt.Errorf("unknown method %q (want fp-ideal | lp-ilp | lp-max)", s)
}

// MethodWire renders a core.Method in the wire spelling ParseMethod
// accepts (Method.String uses the paper's display capitalisation, which
// the API does not).
func MethodWire(m core.Method) (string, error) {
	switch m {
	case core.LPILP:
		return "lp-ilp", nil
	case core.LPMax:
		return "lp-max", nil
	case core.FPIdeal:
		return "fp-ideal", nil
	}
	return "", fmt.Errorf("engine: method %v has no wire spelling", m)
}

// ParseBackend maps the API wire spelling to a core.Backend ("" =
// combinatorial).
func ParseBackend(s string) (core.Backend, error) {
	switch s {
	case "", "combinatorial":
		return core.Combinatorial, nil
	case "paper-ilp":
		return core.PaperILP, nil
	}
	return 0, fmt.Errorf("unknown backend %q (want combinatorial | paper-ilp)", s)
}

// BackendWire renders a core.Backend in the wire spelling ParseBackend
// accepts (the String form capitalises for display).
func BackendWire(b core.Backend) (string, error) {
	switch b {
	case core.Combinatorial:
		return "combinatorial", nil
	case core.PaperILP:
		return "paper-ilp", nil
	}
	return "", fmt.Errorf("engine: backend %v has no wire spelling", b)
}

// analyzeItem is one batch element: a task set plus optional per-request
// overrides of the top-level defaults.
type analyzeItem struct {
	TaskSet  json.RawMessage `json:"taskset"`
	Cores    *int            `json:"cores,omitempty"`
	Method   *string         `json:"method,omitempty"`
	Backend  *string         `json:"backend,omitempty"`
	FinalNPR *bool           `json:"final_npr,omitempty"`
}

// analyzeRequest is the /v1/analyze body: defaults plus a batch.
type analyzeRequest struct {
	Cores    int           `json:"cores,omitempty"`     // default 4
	Method   string        `json:"method,omitempty"`    // default "lp-ilp"
	Backend  string        `json:"backend,omitempty"`   // default "combinatorial"
	FinalNPR bool          `json:"final_npr,omitempty"` // Options.FinalNPRRefinement
	Requests []analyzeItem `json:"requests"`
}

// taskReportJSON is the wire form of one core.TaskReport.
type taskReportJSON struct {
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

// analyzeResponse is the POST /v1/analyze JSON response body.
type analyzeResponse struct {
	Results []analyzeResult `json:"results"`
}

// analyzeResult is one batch element's outcome; exactly one of Error or
// the report fields is meaningful.
type analyzeResult struct {
	Error       string           `json:"error,omitempty"`
	Schedulable bool             `json:"schedulable"`
	Method      string           `json:"method,omitempty"`
	Cores       int              `json:"cores,omitempty"`
	Utilization float64          `json:"utilization,omitempty"`
	Tasks       []taskReportJSON `json:"tasks,omitempty"`
}

func reportJSON(rep *core.Report) analyzeResult {
	out := analyzeResult{
		Schedulable: rep.Schedulable,
		Method:      rep.Method.String(),
		Cores:       rep.Cores,
		Utilization: rep.Utilization,
		Tasks:       make([]taskReportJSON, len(rep.Tasks)),
	}
	for i, tr := range rep.Tasks {
		out.Tasks[i] = taskReportJSON{
			Name:         tr.Name,
			Schedulable:  tr.Schedulable,
			Analyzed:     tr.Analyzed,
			ResponseTime: tr.ResponseTime,
			Deadline:     tr.Deadline,
			DeltaM:       tr.DeltaM,
			DeltaM1:      tr.DeltaM1,
			Preemptions:  tr.Preemptions,
			Iterations:   tr.Iterations,
		}
	}
	return out
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch: requests must hold at least one task set")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch)
		return
	}
	if req.Cores == 0 {
		req.Cores = 4
	}

	results := make([]analyzeResult, len(req.Requests))
	sets := make([]*model.TaskSet, 0, len(req.Requests))
	specs := make([]AnalyzeSpec, 0, len(req.Requests))
	slots := make([]int, 0, len(req.Requests)) // result index per submitted job
	for i, item := range req.Requests {
		spec := AnalyzeSpec{Cores: req.Cores, FinalNPR: req.FinalNPR}
		methodStr, backendStr := req.Method, req.Backend
		if item.Cores != nil {
			spec.Cores = *item.Cores
		}
		if err := checkCores(spec.Cores); err != nil {
			results[i].Error = err.Error()
			continue
		}
		if item.FinalNPR != nil {
			spec.FinalNPR = *item.FinalNPR
		}
		if item.Method != nil {
			methodStr = *item.Method
		}
		if item.Backend != nil {
			backendStr = *item.Backend
		}
		var err error
		if spec.Method, err = ParseMethod(methodStr); err != nil {
			results[i].Error = err.Error()
			continue
		}
		if spec.Backend, err = ParseBackend(backendStr); err != nil {
			results[i].Error = err.Error()
			continue
		}
		if len(item.TaskSet) == 0 {
			results[i].Error = "missing taskset"
			continue
		}
		ts := new(model.TaskSet)
		if err := ts.UnmarshalJSON(item.TaskSet); err != nil {
			results[i].Error = err.Error()
			continue
		}
		sets = append(sets, ts)
		specs = append(specs, spec)
		slots = append(slots, i)
	}

	reports, errs, err := s.eng.AnalyzeBatch(r.Context(), sets, specs)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "batch aborted: %v", err)
		return
	}
	for j, slot := range slots {
		if errs[j] != nil {
			results[slot].Error = errs[j].Error()
			continue
		}
		results[slot] = reportJSON(reports[j])
	}
	s.writeJSON(w, http.StatusOK, analyzeResponse{Results: results})
}

// simulateRequest is the /v1/simulate body.
type simulateRequest struct {
	TaskSet  json.RawMessage `json:"taskset"`
	Cores    int             `json:"cores,omitempty"`    // default 4
	Duration int64           `json:"duration,omitempty"` // default 10000
	MaxJobs  int             `json:"max_jobs,omitempty"`
}

// simulateResponse summarises a run.
type simulateResponse struct {
	Jobs        int     `json:"jobs"`
	Misses      int     `json:"misses"`
	MaxResponse []int64 `json:"max_response"`
	Horizon     int64   `json:"horizon"`
	CoreBusy    []int64 `json:"core_busy"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.TaskSet) == 0 {
		s.writeError(w, http.StatusBadRequest, "missing taskset")
		return
	}
	ts := new(model.TaskSet)
	if err := ts.UnmarshalJSON(req.TaskSet); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid taskset: %v", err)
		return
	}
	if req.Cores == 0 {
		req.Cores = 4
	}
	if err := checkCores(req.Cores); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Duration == 0 {
		req.Duration = 10000
	}
	if req.Duration > MaxSimDuration {
		s.writeError(w, http.StatusBadRequest, "duration %d exceeds limit %d", req.Duration, MaxSimDuration)
		return
	}
	if req.MaxJobs <= 0 || req.MaxJobs > MaxSimJobs {
		req.MaxJobs = MaxSimJobs
	}
	res, err := s.eng.Simulate(r.Context(), ts, SimulateSpec{
		Cores: req.Cores, Duration: req.Duration, MaxJobs: req.MaxJobs,
	})
	if err != nil {
		s.writeError(w, statusForJobError(err), "simulate: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, simulateResponse{
		Jobs:        len(res.Jobs),
		Misses:      res.Misses,
		MaxResponse: res.MaxResponse,
		Horizon:     res.Horizon,
		CoreBusy:    res.CoreBusy,
	})
}

// generateRequest is the /v1/generate body.
type generateRequest struct {
	Seed        int64   `json:"seed"`
	Group       string  `json:"group,omitempty"` // "mixed" (default) | "parallel"
	Utilization float64 `json:"utilization,omitempty"`
	Tasks       int     `json:"tasks,omitempty"`
	SeqProb     float64 `json:"seqprob,omitempty"`
	Count       int     `json:"count,omitempty"` // task sets to produce, default 1
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if !s.decode(w, r, &req) {
		return
	}
	var group gen.Group
	switch req.Group {
	case "", "mixed":
		group = gen.GroupMixed
	case "parallel":
		group = gen.GroupParallel
	default:
		s.writeError(w, http.StatusBadRequest, "unknown group %q (want mixed | parallel)", req.Group)
		return
	}
	if req.Utilization <= 0 {
		req.Utilization = 2
	}
	if req.Utilization > MaxGenUtilization {
		s.writeError(w, http.StatusBadRequest, "utilization %g exceeds limit %d", req.Utilization, MaxGenUtilization)
		return
	}
	if req.Tasks > MaxGenTasks {
		s.writeError(w, http.StatusBadRequest, "tasks %d exceeds limit %d", req.Tasks, MaxGenTasks)
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Count > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "count %d exceeds limit %d", req.Count, s.cfg.MaxBatch)
		return
	}
	// Fan the generations out over the worker pool (each is
	// deterministic in its own derived seed, so order is preserved by
	// slot, not by completion).
	sets := make([]json.RawMessage, req.Count)
	errs := make([]error, req.Count)
	forEachBounded(req.Count, s.eng.Workers(), func(i int) {
		ts, err := s.eng.Generate(r.Context(), GenerateSpec{
			Seed: req.Seed + int64(i), Group: group,
			Utilization: req.Utilization, Tasks: req.Tasks, SeqProb: req.SeqProb,
		})
		if err != nil {
			errs[i] = err
			return
		}
		sets[i], errs[i] = ts.MarshalJSON()
	})
	for _, err := range errs {
		if err != nil {
			s.writeError(w, statusForJobError(err), "generate: %v", err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"tasksets": sets})
}

// healthzResponse is the /healthz body. Status is "ok" while serving
// and "draining" once SIGTERM drain has begun (with HTTP 503, so load
// balancers and cluster coordinators stop routing work here); the load
// fields let a coordinator prefer idle workers.
type healthzResponse struct {
	Status       string `json:"status"`
	Workers      int    `json:"workers"`
	QueueDepth   int    `json:"queue_depth"`
	ActiveShards int64  `json:"active_shards"`
	// Node-identity fields (additive, PR 6): dashboards and coordinators
	// need to tell nodes and builds apart from the probe alone.
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ActiveSessions (additive, PR 9): live session count, so a drain
	// supervisor can see hand-off progress from the probe alone.
	ActiveSessions int `json:"active_sessions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	resp := healthzResponse{
		Status:         "ok",
		Workers:        st.Workers,
		QueueDepth:     st.QueueDepth,
		ActiveShards:   s.activeShards.Load(),
		Version:        obs.Version(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		ActiveSessions: s.sessions.Len(),
	}
	if s.Draining() {
		resp.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// statsResponse augments the engine stats with server-level counters.
type statsResponse struct {
	Stats
	HTTPRequests   uint64  `json:"http_requests"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	ActiveShards   int64   `json:"active_shards"`
	ShardsServed   uint64  `json:"shards_served"`
	ActiveSessions int     `json:"active_sessions"`
	Draining       bool    `json:"draining"`
	// Node-identity and runtime fields (additive, PR 6; existing keys
	// above keep their names and order, so pre-PR-6 consumers parse
	// unchanged).
	Version        string  `json:"version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.writeJSON(w, http.StatusOK, statsResponse{
		Stats:          st,
		HTTPRequests:   atomic.LoadUint64(&s.requests),
		CacheHitRate:   st.Cache.HitRate(),
		ActiveShards:   s.activeShards.Load(),
		ShardsServed:   s.shardsServed.Load(),
		ActiveSessions: s.sessions.Len(),
		Draining:       s.Draining(),
		Version:        obs.Version(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
	})
}

// statusForJobError maps engine-level submission failures to HTTP codes.
func statusForJobError(err error) int {
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
