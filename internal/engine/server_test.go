package engine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	lpdag "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/wire"
)

// newTestServer returns the HTTP handler over a fresh engine.
func newTestServer(t *testing.T, ecfg engine.Config, scfg engine.ServerConfig) http.Handler {
	t.Helper()
	e := engine.New(ecfg)
	t.Cleanup(e.Close)
	return engine.NewServer(e, scfg)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// paperExampleJSON returns the Figure 1 example in the interchange
// format.
func paperExampleJSON(t *testing.T) string {
	t.Helper()
	raw, err := lpdag.PaperExample().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestAnalyzeRoundTripMatchesLibrary posts the paper's Figure 1 example
// as a batch over all three methods and pins every per-task bound to
// the direct lpdag.Analyze result.
func TestAnalyzeRoundTripMatchesLibrary(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	tsJSON := paperExampleJSON(t)
	body := fmt.Sprintf(`{
		"cores": %d,
		"requests": [
			{"taskset": %s, "method": "fp-ideal"},
			{"taskset": %s, "method": "lp-ilp"},
			{"taskset": %s, "method": "lp-max"}
		]
	}`, fixture.M, tsJSON, tsJSON, tsJSON)
	w := post(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Error       string  `json:"error"`
			Schedulable bool    `json:"schedulable"`
			Method      string  `json:"method"`
			Cores       int     `json:"cores"`
			Utilization float64 `json:"utilization"`
			Tasks       []struct {
				Name         string `json:"name"`
				Schedulable  bool   `json:"schedulable"`
				ResponseTime int64  `json:"response_time"`
				Deadline     int64  `json:"deadline"`
				DeltaM       int64  `json:"delta_m"`
				DeltaM1      int64  `json:"delta_m1"`
			} `json:"tasks"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v\n%s", err, w.Body)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, method := range []lpdag.Method{lpdag.FPIdeal, lpdag.LPILP, lpdag.LPMax} {
		want, err := lpdag.Analyze(lpdag.PaperExample(), fixture.M, method)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i]
		if got.Error != "" {
			t.Fatalf("%v: unexpected error %q", method, got.Error)
		}
		if got.Schedulable != want.Schedulable || got.Method != method.String() || got.Cores != fixture.M {
			t.Errorf("%v: verdict/method/cores drifted: %+v", method, got)
		}
		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("%v: %d tasks, want %d", method, len(got.Tasks), len(want.Tasks))
		}
		for j, tr := range want.Tasks {
			g := got.Tasks[j]
			if g.Name != tr.Name || g.ResponseTime != tr.ResponseTime ||
				g.Schedulable != tr.Schedulable || g.Deadline != tr.Deadline ||
				g.DeltaM != tr.DeltaM || g.DeltaM1 != tr.DeltaM1 {
				t.Errorf("%v task %d: got %+v want %+v", method, j, g, tr)
			}
		}
	}
}

func TestAnalyzePerItemOverridesAndErrors(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	tsJSON := paperExampleJSON(t)
	body := fmt.Sprintf(`{
		"method": "lp-max",
		"requests": [
			{"taskset": %s, "cores": 8},
			{"taskset": %s, "method": "no-such-method"},
			{"taskset": {"tasks": []}},
			{}
		]
	}`, tsJSON, tsJSON)
	w := post(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
			Cores int    `json:"cores"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Cores != 8 {
		t.Errorf("item 0 should succeed with cores=8: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "unknown method") {
		t.Errorf("item 1 should report unknown method, got %q", resp.Results[1].Error)
	}
	if !strings.Contains(resp.Results[2].Error, "empty task set") {
		t.Errorf("item 2 should report empty task set, got %q", resp.Results[2].Error)
	}
	if !strings.Contains(resp.Results[3].Error, "missing taskset") {
		t.Errorf("item 3 should report missing taskset, got %q", resp.Results[3].Error)
	}
}

func TestAnalyzeBadRequests(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"requests": [`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"empty batch", `{"requests": []}`, http.StatusBadRequest},
		{"trailing garbage", `{"requests": []}{}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := post(t, h, "/v1/analyze", c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body)
		}
	}
	if w := get(t, h, "/v1/analyze"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", w.Code)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{MaxBodyBytes: 512})
	big := fmt.Sprintf(`{"requests": [{"taskset": %s}], "method": %q}`,
		paperExampleJSON(t), strings.Repeat("x", 4096))
	w := post(t, h, "/v1/analyze", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", w.Code, w.Body)
	}
}

// TestCoresBounded pins the core-count cap on every path a count
// arrives by. The analysis and the simulator allocate per core, so an
// unchecked 1<<62 panicked a worker goroutine and took the process
// down; the server must refuse it and keep serving.
func TestCoresBounded(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	w := post(t, h, "/v1/sessions", fmt.Sprintf(`{"cores": 2, "taskset": %s}`, binaryAcceptTaskSet))
	if w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	edits := "/v1/sessions/" + sessionID(t, w) + "/edits"
	for _, cores := range []int{1 << 62, engine.MaxCores + 1, -1} {
		for _, tc := range []struct {
			path, body string
		}{
			{"/v1/analyze", fmt.Sprintf(`{"cores": %d, "requests": [{"taskset": %s}]}`, cores, binaryAcceptTaskSet)},
			{"/v1/analyze", fmt.Sprintf(`{"requests": [{"taskset": %s, "cores": %d}]}`, binaryAcceptTaskSet, cores)},
			{"/v1/simulate", fmt.Sprintf(`{"cores": %d, "duration": 100, "taskset": %s}`, cores, binaryAcceptTaskSet)},
			{"/v1/sessions", fmt.Sprintf(`{"cores": %d, "taskset": %s}`, cores, binaryAcceptTaskSet)},
			{edits, fmt.Sprintf(`{"edits": [{"op": "set_cores", "cores": %d}]}`, cores)},
		} {
			w := post(t, h, tc.path, tc.body)
			if tc.path != "/v1/analyze" {
				if w.Code != http.StatusBadRequest {
					t.Errorf("%s cores=%d: status %d, want 400 (%s)", tc.path, cores, w.Code, w.Body)
				}
				continue
			}
			var resp struct {
				Results []struct {
					Error string `json:"error"`
				} `json:"results"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil ||
				len(resp.Results) != 1 || resp.Results[0].Error == "" {
				t.Errorf("%s cores=%d: want a per-item error, got status %d: %s", tc.path, cores, w.Code, w.Body)
			}
		}
	}
	// A peer's hand-off snapshot crosses the same boundary.
	sess, err := session.New(core.Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot("0123456789abcdef", 0)
	snap.Opts.Cores = 1 << 62
	payload, err := snap.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, h, "/v1/sessions/handoff", string(wire.AppendFrame(nil, wire.FrameSnapshot, payload))); w.Code != http.StatusBadRequest {
		t.Errorf("handoff cores=1<<62: status %d, want 400 (%s)", w.Code, w.Body)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after oversized cores: status %d", w.Code)
	}
}

// TestUnknownFieldsInsideTaskSet pins where the strict decoder stops:
// a task set is an interchange document other tools write, so unknown
// keys inside it are ignored, while the request envelope around it
// rejects them.
func TestUnknownFieldsInsideTaskSet(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	ts := `{"tasks": [{"name": "a", "wcet": [2, 3], "edges": [[0, 1]], "deadline": 50, "period": 50, "note": "x"}], "source": "tool"}`
	w := post(t, h, "/v1/analyze", fmt.Sprintf(`{"requests": [{"taskset": %s}]}`, ts))
	var resp struct {
		Results []struct {
			Error       string `json:"error"`
			Schedulable bool   `json:"schedulable"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil ||
		len(resp.Results) != 1 || resp.Results[0].Error != "" || !resp.Results[0].Schedulable {
		t.Errorf("unknown task fields: status %d: %s", w.Code, w.Body)
	}
	w = post(t, h, "/v1/analyze", fmt.Sprintf(`{"requests": [{"taskset": %s, "bogus": 1}]}`, ts))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `unknown field \"bogus\"`) {
		t.Errorf("unknown item field: status %d, want 400: %s", w.Code, w.Body)
	}
}

func TestBatchLimit(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{MaxBatch: 2})
	item := fmt.Sprintf(`{"taskset": %s}`, paperExampleJSON(t))
	body := fmt.Sprintf(`{"requests": [%s, %s, %s]}`, item, item, item)
	if w := post(t, h, "/v1/analyze", body); w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for oversized batch", w.Code)
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	body := fmt.Sprintf(`{"taskset": %s, "cores": %d, "duration": 500}`,
		paperExampleJSON(t), fixture.M)
	w := post(t, h, "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Jobs        int     `json:"jobs"`
		Misses      int     `json:"misses"`
		MaxResponse []int64 `json:"max_response"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Jobs == 0 || len(resp.MaxResponse) != lpdag.PaperExample().N() {
		t.Errorf("implausible simulation summary: %+v", resp)
	}
	if w := post(t, h, "/v1/simulate", `{"cores": 4}`); w.Code != http.StatusBadRequest {
		t.Errorf("missing taskset: status %d, want 400", w.Code)
	}
}

// TestGenerateAnalyzePipeline generates task sets over HTTP, checks
// determinism, and feeds them straight back into /v1/analyze.
func TestGenerateAnalyzePipeline(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	genBody := `{"seed": 42, "utilization": 1.5, "count": 2}`
	w1 := post(t, h, "/v1/generate", genBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body)
	}
	w2 := post(t, h, "/v1/generate", genBody)
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("same seed should generate byte-identical responses")
	}
	var resp struct {
		TaskSets []json.RawMessage `json:"tasksets"`
	}
	if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.TaskSets) != 2 {
		t.Fatalf("got %d task sets, want 2", len(resp.TaskSets))
	}
	items := make([]string, len(resp.TaskSets))
	for i, raw := range resp.TaskSets {
		items[i] = fmt.Sprintf(`{"taskset": %s}`, raw)
	}
	w := post(t, h, "/v1/analyze", fmt.Sprintf(`{"requests": [%s]}`, strings.Join(items, ",")))
	if w.Code != http.StatusOK {
		t.Fatalf("analyze of generated sets: status %d: %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), `"error"`) {
		t.Errorf("generated sets should analyze cleanly: %s", w.Body)
	}

	if w := post(t, h, "/v1/generate", `{"group": "no-such-group"}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad group: status %d, want 400", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"ok"`) {
		t.Errorf("body %q should report ok", w.Body)
	}
}

// TestHealthzDraining pins the drain protocol: /healthz reports "ok"
// while serving, flips to 503 "draining" the moment StartDraining is
// called (NOT when the listener later closes), and /stats mirrors the
// flag together with the shard-load gauges.
func TestHealthzDraining(t *testing.T) {
	e := engine.New(engine.Config{})
	t.Cleanup(e.Close)
	s := engine.NewServer(e, engine.ServerConfig{})

	if w := get(t, s, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("pre-drain healthz: %d %s", w.Code, w.Body)
	}
	s.ShardStarted()
	if w := get(t, s, "/healthz"); !strings.Contains(w.Body.String(), `"active_shards": 1`) {
		t.Errorf("healthz should report the active shard: %s", w.Body)
	}
	s.ShardFinished()

	s.StartDraining()
	w := get(t, s, "/healthz")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"draining"`) {
		t.Errorf("draining healthz body: %s", w.Body)
	}
	if w := get(t, s, "/stats"); !strings.Contains(w.Body.String(), `"draining": true`) ||
		!strings.Contains(w.Body.String(), `"shards_served": 1`) {
		t.Errorf("stats should mirror draining + shard counters: %s", w.Body)
	}

	// Draining only affects health reporting here; in-flight and even
	// new engine requests still complete (the coordinator just stops
	// sending new shard leases).
	if w := get(t, s, "/stats"); w.Code != http.StatusOK {
		t.Errorf("stats while draining: %d", w.Code)
	}
}

// TestStatsMonotonic checks the cache and job counters only ever grow,
// and that repeating an identical batch turns misses into hits.
func TestStatsMonotonic(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	type stats struct {
		Analyses     uint64 `json:"analyses"`
		HTTPRequests uint64 `json:"http_requests"`
		Cache        struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	read := func() stats {
		w := get(t, h, "/stats")
		if w.Code != http.StatusOK {
			t.Fatalf("stats: status %d", w.Code)
		}
		var s stats
		if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	body := fmt.Sprintf(`{"cores": %d, "requests": [{"taskset": %s}]}`,
		fixture.M, paperExampleJSON(t))

	s0 := read()
	if w := post(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d", w.Code)
	}
	s1 := read()
	if w := post(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d", w.Code)
	}
	s2 := read()

	if s1.Analyses != s0.Analyses+1 || s2.Analyses != s1.Analyses+1 {
		t.Errorf("analyses %d → %d → %d, want +1 each", s0.Analyses, s1.Analyses, s2.Analyses)
	}
	if s2.HTTPRequests <= s0.HTTPRequests {
		t.Errorf("http_requests should grow: %d → %d", s0.HTTPRequests, s2.HTTPRequests)
	}
	if s1.Cache.Misses == 0 {
		t.Error("first analysis should miss the cache")
	}
	if s2.Cache.Hits <= s1.Cache.Hits {
		t.Errorf("identical repeat should hit the cache: hits %d → %d", s1.Cache.Hits, s2.Cache.Hits)
	}
	if s2.Cache.Misses != s1.Cache.Misses {
		t.Errorf("identical repeat should add no misses: %d → %d", s1.Cache.Misses, s2.Cache.Misses)
	}
}

// TestConcurrentHTTPHammer fires parallel batches at the handler; with
// -race this exercises the full server→engine→cache stack.
func TestConcurrentHTTPHammer(t *testing.T) {
	h := newTestServer(t, engine.Config{Workers: 4}, engine.ServerConfig{})
	body := fmt.Sprintf(`{"cores": %d, "requests": [{"taskset": %s}, {"taskset": %s, "method": "lp-max"}]}`,
		fixture.M, paperExampleJSON(t), paperExampleJSON(t))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body)
				}
			}
		}()
	}
	wg.Wait()
}

// TestInFlightLimit saturates a MaxInFlight=1 server with a held
// request and checks the next one is shed with 503.
func TestInFlightLimit(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	t.Cleanup(e.Close)
	h := engine.NewServer(e, engine.ServerConfig{MaxInFlight: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A slow body keeps the handler (and its semaphore slot) busy
		// until release is closed.
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", &gatedReader{
			started: started, release: release,
		})
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-started
	w := post(t, h, "/v1/analyze", `{"requests": []}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 while server is saturated", w.Code)
	}
	close(release)
	wg.Wait()
	// Capacity is released: the same request now gets through to
	// request validation (400, not 503).
	if w := post(t, h, "/v1/analyze", `{"requests": []}`); w.Code != http.StatusBadRequest {
		t.Errorf("status %d after release, want 400", w.Code)
	}
}

// gatedReader signals first use, then blocks until released, then EOFs.
type gatedReader struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedReader) Read([]byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return 0, fmt.Errorf("closed")
}

// failingWriter errors on every body write, as a closed client
// connection would.
type failingWriter struct {
	http.ResponseWriter
}

func (f failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestWriteErrorsCounted pins the lpdag_http_write_errors_total
// counter: both encode failures and mid-body write failures count.
func TestWriteErrorsCounted(t *testing.T) {
	e := engine.New(engine.Config{Obs: obs.NewRegistry()})
	t.Cleanup(e.Close)
	s := engine.NewServer(e, engine.ServerConfig{})
	writeErrs := func(want int) {
		t.Helper()
		w := get(t, s, "/metrics")
		if w.Code != http.StatusOK {
			t.Fatalf("/metrics status %d", w.Code)
		}
		line := fmt.Sprintf("lpdag_http_write_errors_total %d\n", want)
		if !strings.Contains(w.Body.String(), line) {
			t.Fatalf("/metrics missing %q:\n%s", line, w.Body)
		}
	}
	writeErrs(0)

	// Encode failure: channels are not JSON-serialisable.
	w := httptest.NewRecorder()
	s.WriteJSON(w, http.StatusOK, make(chan int))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure status %d, want 500", w.Code)
	}
	writeErrs(1)

	// Mid-body write failure, through a real handler.
	s.ServeHTTP(failingWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	writeErrs(2)
}

// binaryAcceptTaskSet is unschedulable on two cores under LP-ILP (lo's
// single 200-long NPR blocks hi past its deadline), so a repair has
// work to do.
const binaryAcceptTaskSet = `{"tasks":[
	{"name":"hi","wcet":[5,5],"edges":[[0,1]],"deadline":25,"period":40},
	{"name":"lo","wcet":[200],"edges":[],"deadline":900,"period":1000}
]}`

// TestBinaryAcceptServedAsJSON pins the answer to clients that still
// ask for the retired binary response codec: on /v1/analyze and every
// session endpoint that once had a binary form, "Accept:
// application/x-lpdag-bin" gets application/json with the same status,
// epoch header and body bytes as the request without that header.
func TestBinaryAcceptServedAsJSON(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	createBody := fmt.Sprintf(`{"cores": 2, "method": "lp-ilp", "taskset": %s}`, binaryAcceptTaskSet)
	cases := []struct {
		name, method, path, body string // "{id}" in path: a fresh session per request
		status                   int
	}{
		{"analyze", http.MethodPost, "/v1/analyze", fmt.Sprintf(
			`{"cores": 2, "requests": [{"taskset": %s}, {"taskset": %s, "method": "lp-max", "cores": 4}, {}]}`,
			binaryAcceptTaskSet, binaryAcceptTaskSet), http.StatusOK},
		{"create", http.MethodPost, "/v1/sessions", createBody, http.StatusCreated},
		{"report", http.MethodGet, "/v1/sessions/{id}/report", "", http.StatusOK},
		{"edits", http.MethodPost, "/v1/sessions/{id}/edits",
			`{"edits": [{"op": "set_cores", "cores": 4}, {"op": "remove", "name": "hi"}]}`, http.StatusOK},
		{"admit", http.MethodPost, "/v1/sessions/{id}/admit",
			`{"task": {"name":"c","wcet":[1],"edges":[],"deadline":1000,"period":1000}}`, http.StatusOK},
		{"repair", http.MethodPost, "/v1/sessions/{id}/repair", `{"seed": 7, "apply": true}`, http.StatusOK},
		{"missing session", http.MethodGet, "/v1/sessions/no-such-id/report", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var replies [2]*httptest.ResponseRecorder
			for i, accept := range []string{"", wire.ContentType} {
				path := tc.path
				if strings.Contains(path, "{id}") {
					w := post(t, h, "/v1/sessions", createBody)
					if w.Code != http.StatusCreated {
						t.Fatalf("create: status %d: %s", w.Code, w.Body)
					}
					path = strings.Replace(path, "{id}", sessionID(t, w), 1)
				}
				req := httptest.NewRequest(tc.method, path, strings.NewReader(tc.body))
				if accept != "" {
					req.Header.Set("Accept", accept)
				}
				replies[i] = httptest.NewRecorder()
				h.ServeHTTP(replies[i], req)
			}
			plain, bin := replies[0], replies[1]
			if plain.Code != tc.status || bin.Code != tc.status {
				t.Fatalf("status %d with binary Accept, %d without, want %d: %s",
					bin.Code, plain.Code, tc.status, plain.Body)
			}
			if ct := bin.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q with binary Accept, want application/json", ct)
			}
			const epoch = "X-Lpdag-Session-Epoch"
			if got, want := bin.Header().Get(epoch), plain.Header().Get(epoch); got != want {
				t.Fatalf("%s %q with binary Accept, %q without", epoch, got, want)
			}
			pb, bb := plain.Body.Bytes(), bin.Body.Bytes()
			if tc.name == "create" {
				// Session ids are random; everything around them must match.
				pb = bytes.ReplaceAll(pb, []byte(sessionID(t, plain)), []byte("ID"))
				bb = bytes.ReplaceAll(bb, []byte(sessionID(t, bin)), []byte("ID"))
			}
			if !bytes.Equal(pb, bb) {
				t.Fatalf("body with binary Accept:\n%s\nwithout:\n%s", bb, pb)
			}
		})
	}
}

// sessionID returns the id of a create-session reply.
func sessionID(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.ID == "" {
		t.Fatalf("create reply without id (%v): %s", err, w.Body)
	}
	return resp.ID
}
