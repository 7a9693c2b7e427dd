package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/wire"
)

// testWorker is one in-process lpdag-serve worker node: an engine, its
// HTTP server (healthz/stats + drain flag), and the shard endpoint,
// wired exactly like cmd/lpdag-serve.
type testWorker struct {
	srv *engine.Server
	ts  *httptest.Server
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", NewWorkerHandler(eng, WorkerConfig{
		Heartbeat: 100 * time.Millisecond, Load: srv,
	}))
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &testWorker{srv: srv, ts: ts}
}

// e2eCampaign is the ~200-point campaign of the end-to-end tests:
// 2 scenario families × 2 core counts × 49 utilization fractions with
// one task set per point = 196 points.
func e2eCampaign(t *testing.T) experiments.CampaignConfig {
	t.Helper()
	var fracs []float64
	for f := 0.02; f < 0.99; f += 0.02 {
		fracs = append(fracs, f)
	}
	mixed, err := experiments.ScenarioByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	light, err := experiments.ScenarioByName("light")
	if err != nil {
		t.Fatal(err)
	}
	return experiments.CampaignConfig{
		Seed:         42,
		Ms:           []int{2, 4},
		UFracs:       fracs,
		SetsPerPoint: 1,
		Scenarios:    []experiments.Scenario{mixed, light},
	}
}

// runLocalReference runs the campaign in-process with a single worker
// and returns its JSONL and CSV byte streams: the determinism oracle.
func runLocalReference(t *testing.T, cfg experiments.CampaignConfig) (jsonl, csv []byte) {
	t.Helper()
	local := cfg
	local.Workers = 1
	var jb, cb bytes.Buffer
	if _, err := experiments.RunCampaign(local, experiments.RunOptions{JSONL: &jb, CSV: &cb}); err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestClusterEndToEndWorkerDeath is the ISSUE's acceptance test: a
// 3-worker cluster runs a 196-point campaign, one worker is killed
// mid-campaign (connections severed, listener closed), and the merged
// JSONL/CSV must still be byte-identical to a local single-worker run.
func TestClusterEndToEndWorkerDeath(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, wantCSV := runLocalReference(t, cfg)

	workers := []*testWorker{newTestWorker(t), newTestWorker(t), newTestWorker(t)}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}

	var (
		kill   sync.Once
		killed = make(chan struct{})
	)
	var jb, cb bytes.Buffer
	results, err := Run(Config{
		Campaign:     cfg,
		Workers:      urls,
		LeaseTimeout: 3 * time.Second,
		Shards:       12, // several leases per worker, so the kill lands mid-campaign
	}, experiments.RunOptions{
		JSONL: &jb,
		CSV:   &cb,
		OnProgress: func(p experiments.Progress) {
			// Kill worker 0 once a quarter of the campaign has merged:
			// in-flight shard streams sever mid-flight and their leases
			// must fail over to the surviving workers.
			if p.Done >= p.Total/4 {
				kill.Do(func() {
					workers[0].ts.CloseClientConnections()
					workers[0].ts.Close()
					close(killed)
				})
			}
		},
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("worker 0 was never killed: the campaign finished too fast for the test to mean anything")
	}
	if len(results) != 196 {
		t.Fatalf("got %d results, want 196", len(results))
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Errorf("cluster JSONL differs from local run (%d vs %d bytes)", jb.Len(), len(wantJSONL))
	}
	if !bytes.Equal(cb.Bytes(), wantCSV) {
		t.Errorf("cluster CSV differs from local run (%d vs %d bytes)", cb.Len(), len(wantCSV))
	}

	// The surviving workers carried shards: their load gauges saw them.
	var served uint64
	for _, w := range workers[1:] {
		served += workerShardsServed(t, w)
	}
	if served == 0 {
		t.Error("surviving workers report zero shards served")
	}
}

func workerShardsServed(t *testing.T, w *testWorker) uint64 {
	t.Helper()
	resp, err := http.Get(w.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ShardsServed uint64 `json:"shards_served"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ShardsServed
}

// TestClusterDrainingWorker marks one of two workers as draining
// mid-campaign: the coordinator must stop scheduling to it (healthz
// gate or shard-endpoint 503 — both paths hand the lease back without
// consuming a retry) and still produce byte-identical output.
func TestClusterDrainingWorker(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, _ := runLocalReference(t, cfg)

	w0, w1 := newTestWorker(t), newTestWorker(t)
	var drain sync.Once
	var jb bytes.Buffer
	_, err := Run(Config{
		Campaign:     cfg,
		Workers:      []string{w0.ts.URL, w1.ts.URL},
		LeaseTimeout: 3 * time.Second,
		Shards:       8,
	}, experiments.RunOptions{
		JSONL: &jb,
		OnProgress: func(p experiments.Progress) {
			if p.Done >= p.Total/4 {
				drain.Do(w0.srv.StartDraining)
			}
		},
	})
	if err != nil {
		t.Fatalf("cluster run with draining worker: %v", err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Error("draining-failover JSONL differs from local run")
	}
}

// TestClusterResume feeds a prefix of a previous run's JSONL as
// Completed: carried points are emitted verbatim, only the rest is
// computed remotely, and the full stream is byte-identical.
func TestClusterResume(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, _ := runLocalReference(t, cfg)

	// Re-read the first 50 lines as the carried prefix, like -resume.
	lines := bytes.SplitAfter(wantJSONL, []byte("\n"))
	prefix := bytes.Join(lines[:50], nil)
	carried, err := experiments.ReadCampaignJSONL(bytes.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}

	w := newTestWorker(t)
	var jb bytes.Buffer
	_, err = Run(Config{
		Campaign:     cfg,
		Workers:      []string{w.ts.URL},
		LeaseTimeout: 3 * time.Second,
	}, experiments.RunOptions{JSONL: &jb, Completed: carried})
	if err != nil {
		t.Fatalf("resumed cluster run: %v", err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Error("resumed cluster JSONL differs from local run")
	}
}

// TestClusterLeaseCapRespected pins the admission-cap interplay: even
// when the requested shard count would produce leases larger than the
// workers' -max-shard-points limit, the coordinator raises the shard
// count instead of dispatching leases every worker rejects.
func TestClusterLeaseCapRespected(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", NewWorkerHandler(eng, WorkerConfig{MaxPoints: 2, Heartbeat: 100 * time.Millisecond}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := e2eCampaign(t)
	cfg.UFracs = cfg.UFracs[:2] // 8 points
	wantJSONL, _ := runLocalReference(t, cfg)

	var jb bytes.Buffer
	_, err := Run(Config{
		Campaign:       cfg,
		Workers:        []string{ts.URL},
		LeaseTimeout:   3 * time.Second,
		Shards:         1, // would be one 8-point lease without the cap
		MaxLeasePoints: 2,
	}, experiments.RunOptions{JSONL: &jb})
	if err != nil {
		t.Fatalf("capped cluster run: %v", err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Error("capped-lease JSONL differs from local run")
	}
}

// TestClusterAllWorkersDead pins the no-workers failure mode: the
// campaign errors out instead of hanging.
func TestClusterAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	cfg := e2eCampaign(t)
	cfg.UFracs = []float64{0.5} // tiny: 4 points
	_, err := Run(Config{
		Campaign:        cfg,
		Workers:         []string{dead.URL},
		LeaseTimeout:    500 * time.Millisecond,
		WorkerFailLimit: 2,
	}, experiments.RunOptions{})
	if err == nil {
		t.Fatal("campaign against a dead worker should fail")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("error should name the worker exhaustion: %v", err)
	}
}

// TestClusterContextCancel pins prompt cancellation.
func TestClusterContextCancel(t *testing.T) {
	w := newTestWorker(t)
	cfg := e2eCampaign(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := Run(Config{
			Campaign:     cfg,
			Workers:      []string{w.ts.URL},
			LeaseTimeout: 3 * time.Second,
		}, experiments.RunOptions{
			Context: ctx,
			OnProgress: func(experiments.Progress) {
				once.Do(cancel)
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled campaign should return an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
}

// TestWorkerHandlerValidation pins the shard endpoint's admission
// checks and the draining gate.
func TestWorkerHandlerValidation(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	h := NewWorkerHandler(eng, WorkerConfig{MaxPoints: 4, Load: srv})

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/shard", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	if w := post(`{"campaign": {"seed": 1}, "points": []}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty lease: status %d, want 400", w.Code)
	}
	if w := post(`{"campaign": {"seed": 1}, "points": [0,1,2,3,4]}`); w.Code != http.StatusBadRequest {
		t.Errorf("oversized lease: status %d, want 400", w.Code)
	}
	if w := post(`{"campaign": {"scenarios": ["no-such"]}, "points": [0]}`); w.Code != http.StatusBadRequest {
		t.Errorf("unknown scenario: status %d, want 400", w.Code)
	}
	if w := post(`{"campaign": {"seed": 1}, "points": [3,1]}`); w.Code != http.StatusOK {
		t.Errorf("descending points: status %d, want 200 (stream with error line)", w.Code)
	} else if !strings.Contains(w.Body.String(), "increasing") {
		t.Errorf("descending points should fail in-stream: %s", w.Body)
	}

	srv.StartDraining()
	if w := post(`{"campaign": {"seed": 1}, "points": [0]}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining worker: status %d, want 503", w.Code)
	}
}

// TestOversizedBodyIs413 pins that the campaign and shard endpoints
// classify a body over MaxCampaignBodyBytes like the engine's /v1/
// endpoints do: 413 with an {"error": ...} body, not a 400 decode error.
func TestOversizedBodyIs413(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	// Well-formed JSON that only the size cap can reject: one long
	// scenario name, padded to exactly one byte past the cap.
	prefix, suffix := `{"campaign": {"scenarios": ["`, `"]}, "points": [0]}`
	shardBody := prefix + strings.Repeat("x", experiments.MaxCampaignBodyBytes+1-len(prefix)-len(suffix)) + suffix
	prefix, suffix = `{"scenarios": ["`, `"]}`
	campaignBody := prefix + strings.Repeat("x", experiments.MaxCampaignBodyBytes+1-len(prefix)-len(suffix)) + suffix
	for _, tc := range []struct {
		path, body string
		h          http.Handler
	}{
		{"/v1/campaign", campaignBody, experiments.CampaignHandler(eng)},
		{"/v1/shard", shardBody, NewWorkerHandler(eng, WorkerConfig{})},
	} {
		if len(tc.body) != experiments.MaxCampaignBodyBytes+1 {
			t.Fatalf("%s: body of %d bytes", tc.path, len(tc.body))
		}
		w := httptest.NewRecorder()
		tc.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", tc.path, w.Code, w.Body)
			continue
		}
		var reply map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply["error"] == "" || len(reply) != 1 {
			t.Errorf("%s: body is not {\"error\": ...} (%v): %s", tc.path, err, w.Body)
		}
	}
}

// TestWorkerStreamMatchesLocalSubset pins the worker's stream bytes to
// a local RunCampaignSubset of the same lease, heartbeat lines aside.
func TestWorkerStreamMatchesLocalSubset(t *testing.T) {
	w := newTestWorker(t)
	campaign := experiments.CampaignRequest{
		Seed: 7, Ms: []int{2}, UFracs: []float64{0.3, 0.6}, SetsPerPoint: 2,
		Scenarios: []string{"mixed"},
	}
	body, _ := json.Marshal(ShardRequest{Campaign: campaign, Points: []int{0, 1}})
	resp, err := http.Post(w.ts.URL+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard: status %d", resp.StatusCode)
	}
	got, err := experiments.ReadCampaignJSONL(resp.Body)
	if err != nil {
		t.Fatalf("worker stream does not re-parse as campaign JSONL: %v", err)
	}

	cfg, err := campaign.Config()
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if _, err := experiments.RunCampaignSubset(cfg, []int{0, 1}, experiments.RunOptions{JSONL: &local}); err != nil {
		t.Fatal(err)
	}
	want, err := experiments.ReadCampaignJSONL(&local)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("worker stream %v\nlocal subset %v", got, want)
	}
}

// binaryProbeWorker is a worker whose shard endpoint records the
// response Content-Type of every lease, so tests can assert which
// codec the negotiation actually picked. A jsonlOnly worker drops the
// Accept header before its shard handler sees it, standing in for an
// older worker that only speaks JSONL.
func binaryProbeWorker(t *testing.T, jsonlOnly bool) (*testWorker, func() []string) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	shard := NewWorkerHandler(eng, WorkerConfig{Heartbeat: 100 * time.Millisecond, Load: srv})
	var (
		mu     sync.Mutex
		ctypes []string
	)
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if jsonlOnly {
			r.Header.Del("Accept")
		}
		shard.ServeHTTP(w, r)
		mu.Lock()
		ctypes = append(ctypes, w.Header().Get("Content-Type"))
		mu.Unlock()
	}))
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &testWorker{srv: srv, ts: ts}, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ctypes...)
	}
}

// TestClusterBinaryLeaseByteIdentical pins the codec negotiation end to
// end: a worker that understands the binary wire frames streams its
// shards back in them, a JSONL-only worker answers JSONL, and the
// coordinator decodes each lease by its Content-Type, so the merged
// JSONL/CSV output is byte-identical to a local JSON-only run whether
// the cluster is all binary, all JSONL, or mixed-version.
func TestClusterBinaryLeaseByteIdentical(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, wantCSV := runLocalReference(t, cfg)

	for _, tc := range []struct {
		name                   string
		jsonlOnly1, jsonlOnly2 bool
	}{
		{"binary", false, false},
		{"jsonl-fallback", true, true},
		{"mixed-version", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w1, types1 := binaryProbeWorker(t, tc.jsonlOnly1)
			w2, types2 := binaryProbeWorker(t, tc.jsonlOnly2)
			var jb, cb bytes.Buffer
			results, err := Run(Config{
				Campaign:     cfg,
				Workers:      []string{w1.ts.URL, w2.ts.URL},
				LeaseTimeout: 3 * time.Second,
				Shards:       8,
			}, experiments.RunOptions{JSONL: &jb, CSV: &cb})
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			if len(results) != 196 {
				t.Fatalf("got %d results, want 196", len(results))
			}
			if !bytes.Equal(jb.Bytes(), wantJSONL) {
				t.Errorf("merged JSONL differs from local run (%d vs %d bytes)", jb.Len(), len(wantJSONL))
			}
			if !bytes.Equal(cb.Bytes(), wantCSV) {
				t.Errorf("merged CSV differs from local run (%d vs %d bytes)", cb.Len(), len(wantCSV))
			}
			leases := 0
			for _, w := range []struct {
				types     []string
				jsonlOnly bool
			}{{types1(), tc.jsonlOnly1}, {types2(), tc.jsonlOnly2}} {
				want := wire.ContentType
				if w.jsonlOnly {
					want = "application/x-ndjson"
				}
				for _, ct := range w.types {
					if ct != want {
						t.Fatalf("shard response Content-Type = %q, want %q", ct, want)
					}
				}
				if tc.jsonlOnly1 != tc.jsonlOnly2 && len(w.types) == 0 {
					t.Fatal("mixed-version run left one worker without a lease")
				}
				leases += len(w.types)
			}
			if leases == 0 {
				t.Fatal("no shard leases recorded")
			}
		})
	}
}
