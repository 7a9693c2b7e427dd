package cluster

// Worker half of the cluster protocol: POST /v1/shard computes a leased
// subset of a campaign's grid points and streams the results back,
// representing exactly what a local run would emit for those indices
// (experiments.RunCampaignSubset).
//
// Two stream codecs are negotiated via the Accept header. The default is
// JSON lines, where blank lines are heartbeats: the handler emits one
// every WorkerConfig.Heartbeat of silence so the coordinator's lease
// watchdog can tell "slow point" from "dead worker";
// experiments.ReadCampaignJSONL already skips blank lines, so the stream
// stays a valid campaign JSONL stream. With "Accept:
// application/x-lpdag-bin" the stream is instead wire frames — 'R'
// frames carrying binary PointResult payloads, 'H' heartbeat frames —
// encoded through one reused buffer pair, so a shard stream allocates
// O(1) however many points it carries.
//
// If the run fails after streaming began a terminal {"error": ...} line
// (or an 'E' frame) is appended, mirroring POST /v1/campaign.

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/wire"
)

// Shard protocol limits and defaults.
const (
	// DefaultMaxShardPoints caps the grid points of one lease.
	DefaultMaxShardPoints = 1024
	// DefaultHeartbeat is the worker's blank-line keepalive interval.
	DefaultHeartbeat = 2 * time.Second
)

// ShardRequest is the POST /v1/shard body: the campaign's wire form
// plus the leased point indices (strictly increasing).
type ShardRequest struct {
	Campaign experiments.CampaignRequest `json:"campaign"`
	Points   []int                       `json:"points"`
}

// LoadReporter is the worker-state surface the shard handler feeds:
// Draining gates new leases, ShardStarted/ShardFinished drive the load
// gauges behind /healthz and /stats. *engine.Server implements it.
type LoadReporter interface {
	Draining() bool
	ShardStarted()
	ShardFinished()
}

// WorkerConfig parameterises the shard handler.
type WorkerConfig struct {
	// MaxPoints caps the points of one lease; 0 means
	// DefaultMaxShardPoints.
	MaxPoints int
	// Heartbeat is the blank-line keepalive interval; 0 means
	// DefaultHeartbeat, negative disables heartbeats.
	Heartbeat time.Duration
	// Load, when non-nil, reports draining state and shard load
	// (normally the node's *engine.Server).
	Load LoadReporter
}

// NewWorkerHandler serves POST /v1/shard on the given engine.
func NewWorkerHandler(eng *engine.Engine, cfg WorkerConfig) http.Handler {
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = DefaultMaxShardPoints
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			engine.WriteJSONError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if cfg.Load != nil && cfg.Load.Draining() {
			engine.WriteJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, experiments.MaxCampaignBodyBytes)
		var req ShardRequest
		if status, err := engine.DecodeJSON(r.Body, &req); err != nil {
			engine.WriteJSONError(w, status, "%v", err)
			return
		}
		campaign, err := req.Campaign.Config()
		if err != nil {
			engine.WriteJSONError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(req.Points) == 0 {
			engine.WriteJSONError(w, http.StatusBadRequest, "empty lease: points must name at least one grid point")
			return
		}
		if len(req.Points) > cfg.MaxPoints {
			engine.WriteJSONError(w, http.StatusBadRequest, "%d points exceed this worker's lease limit %d", len(req.Points), cfg.MaxPoints)
			return
		}
		// Config returns the normalized campaign, so these are the sets
		// and methods actually computed, not restated defaults.
		if analyses := len(req.Points) * campaign.SetsPerPoint * len(campaign.Methods); analyses > experiments.MaxCampaignAnalyses {
			engine.WriteJSONError(w, http.StatusBadRequest, "%d analyses exceed limit %d", analyses, experiments.MaxCampaignAnalyses)
			return
		}

		if cfg.Load != nil {
			cfg.Load.ShardStarted()
			defer cfg.Load.ShardFinished()
		}
		opts := experiments.RunOptions{
			Context: r.Context(),
			Engine:  eng,
			Obs:     eng.Obs(),
		}
		if wire.Accepts(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", wire.ContentType)
			w.WriteHeader(http.StatusOK)
			out := newHeartbeatWriter(w, cfg.Heartbeat, wire.HeartbeatFrame)
			defer out.stop()
			var payload, frame []byte
			opts.OnResult = func(pr experiments.PointResult) error {
				var err error
				if payload, err = experiments.AppendPointResultBinary(payload[:0], pr); err != nil {
					return err
				}
				frame = wire.AppendFrame(frame[:0], wire.FrameResult, payload)
				_, err = out.Write(frame)
				return err
			}
			if _, err := experiments.RunCampaignSubset(campaign, req.Points, opts); err != nil {
				// Too late for a status code; emit a terminal error frame
				// the coordinator treats as a shard failure.
				out.Write(wire.AppendFrame(nil, wire.FrameError, []byte(err.Error())))
			}
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		out := newHeartbeatWriter(w, cfg.Heartbeat, []byte("\n"))
		defer out.stop()
		opts.JSONL = out
		if _, err := experiments.RunCampaignSubset(campaign, req.Points, opts); err != nil {
			// Too late for a status code; emit a terminal error line the
			// coordinator treats as a shard failure.
			data, _ := json.Marshal(map[string]string{"error": err.Error()})
			out.Write(append(data, '\n'))
		}
	})
}

// heartbeatWriter serialises result writes with periodic keepalives
// (beat is the codec's idle payload: a blank line for JSONL, a
// heartbeat frame for binary) and flushes each write so results reach
// the coordinator as they are produced.
type heartbeatWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	beat    []byte
	stopped bool // no writes may start once set: the handler is returning
	done    chan struct{}
	once    sync.Once
}

func newHeartbeatWriter(w http.ResponseWriter, interval time.Duration, beat []byte) *heartbeatWriter {
	h := &heartbeatWriter{w: w, beat: beat, done: make(chan struct{})}
	if interval > 0 {
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-h.done:
					return
				case <-t.C:
					h.mu.Lock()
					if !h.stopped {
						h.w.Write(h.beat)
						h.flushLocked()
					}
					h.mu.Unlock()
				}
			}
		}()
	}
	return h
}

func (h *heartbeatWriter) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, err := h.w.Write(p)
	h.flushLocked()
	return n, err
}

func (h *heartbeatWriter) flushLocked() {
	if fl, ok := h.w.(http.Flusher); ok {
		fl.Flush()
	}
}

// stop ends the keepalive goroutine and fences it off the
// ResponseWriter: once stop returns, no beat can touch w again (the
// handler is about to return it to net/http).
func (h *heartbeatWriter) stop() {
	h.once.Do(func() { close(h.done) })
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
}
