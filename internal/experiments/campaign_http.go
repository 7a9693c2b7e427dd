package experiments

// HTTP front end of the campaign orchestrator, mounted by
// cmd/lpdag-serve next to the engine's /v1/ endpoints (it lives here
// rather than in internal/engine because the orchestrator builds on the
// engine — the import only points one way).
//
//	POST /v1/campaign   run a sweep campaign, streaming one JSON
//	                    PointResult per line (application/x-ndjson)
//
// The response is a plain campaign JSONL stream (ReadCampaignJSONL
// parses it back); if the run fails after streaming began, a final
// {"error": ...} line is appended, which JSONL readers reject — the
// stream is only complete if every line parses.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"repro/internal/engine"
)

// Campaign API limits: the HTTP boundary is where untrusted sizes
// arrive, and one campaign fans out points × sets × methods analyses.
const (
	MaxCampaignBodyBytes = 1 << 20 // 1 MiB of JSON config is plenty
	MaxCampaignPoints    = 2048
	MaxCampaignSets      = 200
	MaxCampaignCores     = 64
	MaxCampaignAnalyses  = 250_000
)

// CampaignRequest is the wire form of a campaign configuration: the
// /v1/campaign body, and the campaign half of the cluster shard
// protocol's /v1/shard body (internal/experiments/cluster). Scenarios
// are registry names (StandardScenarios); methods use the wire
// spellings of the analyze endpoint ("fp-ideal" | "lp-ilp" | "lp-max").
type CampaignRequest struct {
	Seed         int64     `json:"seed"`
	Ms           []int     `json:"ms,omitempty"`
	UFracs       []float64 `json:"u_fracs,omitempty"`
	SetsPerPoint int       `json:"sets_per_point,omitempty"`
	Scenarios    []string  `json:"scenarios,omitempty"`
	Methods      []string  `json:"methods,omitempty"`
	Backend      string    `json:"backend,omitempty"`
	Shards       int       `json:"shards,omitempty"`
}

// CampaignHandler serves POST /v1/campaign on the given engine.
func CampaignHandler(eng *engine.Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			engine.WriteJSONError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, MaxCampaignBodyBytes)
		var req CampaignRequest
		if status, err := engine.DecodeJSON(r.Body, &req); err != nil {
			engine.WriteJSONError(w, status, "%v", err)
			return
		}
		cfg, err := req.Config()
		if err != nil {
			engine.WriteJSONError(w, http.StatusBadRequest, "%v", err)
			return
		}
		points, err := cfg.Points()
		if err != nil {
			engine.WriteJSONError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(points) > MaxCampaignPoints {
			engine.WriteJSONError(w, http.StatusBadRequest, "%d grid points exceed limit %d", len(points), MaxCampaignPoints)
			return
		}
		if analyses := len(points) * cfg.SetsPerPoint * len(cfg.Methods); analyses > MaxCampaignAnalyses {
			engine.WriteJSONError(w, http.StatusBadRequest, "%d analyses exceed limit %d", analyses, MaxCampaignAnalyses)
			return
		}

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		out := &flushLineWriter{w: w}
		if _, err := RunCampaign(cfg, RunOptions{
			Context: r.Context(),
			Engine:  eng,
			JSONL:   out,
			Obs:     eng.Obs(),
		}); err != nil {
			// Too late for a status code; emit a terminal error line.
			data, _ := json.Marshal(map[string]string{"error": err.Error()})
			w.Write(append(data, '\n'))
		}
	})
}

// Config validates and resolves the wire form into a CampaignConfig.
func (req CampaignRequest) Config() (CampaignConfig, error) {
	cfg := CampaignConfig{
		Seed:         req.Seed,
		Ms:           req.Ms,
		UFracs:       req.UFracs,
		SetsPerPoint: req.SetsPerPoint,
		Shards:       req.Shards,
	}
	for _, m := range req.Ms {
		if m < 1 || m > MaxCampaignCores {
			return cfg, fmt.Errorf("core count %d outside [1, %d]", m, MaxCampaignCores)
		}
	}
	if cfg.SetsPerPoint > MaxCampaignSets {
		return cfg, fmt.Errorf("sets_per_point %d exceeds limit %d", cfg.SetsPerPoint, MaxCampaignSets)
	}
	for _, name := range req.Scenarios {
		sc, err := ScenarioByName(name)
		if err != nil {
			return cfg, err
		}
		cfg.Scenarios = append(cfg.Scenarios, sc)
	}
	for _, ms := range req.Methods {
		m, err := engine.ParseMethod(ms)
		if err != nil {
			return cfg, err
		}
		cfg.Methods = append(cfg.Methods, m)
	}
	var err error
	if cfg.Backend, err = engine.ParseBackend(req.Backend); err != nil {
		return cfg, err
	}
	// Return the normalized form (defaults filled), so every consumer —
	// the campaign handler's admission estimate, the shard endpoint's —
	// reasons about the grid actually computed instead of restating the
	// package defaults.
	return cfg.normalized()
}

// WireRequest renders a campaign configuration into its wire form, the
// inverse of Config. Because the wire form names scenarios, every
// scenario must be a registry entry (ScenarioByName) — a locally
// modified scenario under a registry name would make remote workers
// silently compute a different campaign, so it is rejected here.
func (c CampaignConfig) WireRequest() (CampaignRequest, error) {
	req := CampaignRequest{
		Seed:         c.Seed,
		Ms:           c.Ms,
		UFracs:       c.UFracs,
		SetsPerPoint: c.SetsPerPoint,
		Shards:       0, // worker-local load balancing is the worker's business
	}
	for _, sc := range c.Scenarios {
		reg, err := ScenarioByName(sc.Name)
		if err != nil {
			return req, fmt.Errorf("experiments: campaign not wire-encodable: %w", err)
		}
		if !reflect.DeepEqual(sc, reg) {
			return req, fmt.Errorf("experiments: campaign not wire-encodable: scenario %q differs from the registry entry of that name", sc.Name)
		}
		req.Scenarios = append(req.Scenarios, sc.Name)
	}
	for _, m := range c.Methods {
		w, err := engine.MethodWire(m)
		if err != nil {
			return req, err
		}
		req.Methods = append(req.Methods, w)
	}
	req.Backend = c.Backend.String()
	// Round-trip through Config so a campaign the wire-level limits
	// would reject (core counts, sets per point) fails at the
	// coordinator, not on every worker.
	if _, err := req.Config(); err != nil {
		return req, err
	}
	return req, nil
}

// flushLineWriter flushes the HTTP response after every write, so the
// ndjson stream reaches clients point by point.
type flushLineWriter struct {
	w http.ResponseWriter
}

func (f *flushLineWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}
