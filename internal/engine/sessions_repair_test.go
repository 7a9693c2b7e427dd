package engine

// Tests of POST /v1/sessions/{id}/repair: wire validation (the ppp
// panic must be unreachable), determinism of the returned transform
// sequence, and the apply flow.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// repairTestTaskSet is the pinned unschedulable fixture: on two cores
// under LP-ILP, lo's single 200-long NPR blocks hi past its deadline.
const repairTestTaskSet = `{"tasks":[
	{"name":"hi","wcet":[5,5],"edges":[[0,1]],"deadline":25,"period":40},
	{"name":"lo","wcet":[200],"edges":[],"deadline":900,"period":1000}
]}`

func repairTestServer(t *testing.T) *Server {
	t.Helper()
	e := New(Config{})
	t.Cleanup(e.Close)
	return NewServer(e, ServerConfig{})
}

func repairTestSession(t *testing.T, s *Server) string {
	t.Helper()
	body := fmt.Sprintf(`{"taskset": %s, "cores": 2, "method": "lp-ilp"}`, repairTestTaskSet)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body)))
	if w.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		ID     string        `json:"id"`
		Report analyzeResult `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Schedulable {
		t.Fatal("fixture must start unschedulable")
	}
	return resp.ID
}

func postRepair(t *testing.T, s *Server, id, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/repair", strings.NewReader(body)))
	return w
}

func TestSessionRepairHTTP(t *testing.T) {
	s := repairTestServer(t)
	id := repairTestSession(t, s)

	w := postRepair(t, s, id, `{"seed": 7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("repair status %d: %s", w.Code, w.Body)
	}
	var first repairResponse
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if !first.Fixed || first.Applied || first.Stopped {
		t.Fatalf("want an unapplied fix, got %+v", first)
	}
	if len(first.Transforms) == 0 || !first.Report.Schedulable {
		t.Fatalf("fix without transforms or schedulable report: %+v", first)
	}
	if first.FailingBefore == 0 || first.FailingAfter != 0 {
		t.Fatalf("failing counts: %+v", first)
	}

	// Deterministic: the same query returns byte-identical JSON.
	w2 := postRepair(t, s, id, `{"seed": 7}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("second repair status %d: %s", w2.Code, w2.Body)
	}
	if w.Body.String() != w2.Body.String() {
		t.Fatalf("repair is not deterministic:\n%s\nvs\n%s", w.Body, w2.Body)
	}

	// A query must not have mutated the session.
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/report", nil))
	var rep struct {
		Report analyzeResult `json:"report"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Report.Schedulable {
		t.Fatal("repair query mutated the session")
	}
}

func TestSessionRepairApplyHTTP(t *testing.T) {
	s := repairTestServer(t)
	id := repairTestSession(t, s)

	// Epoch before: a pure query's header carries the current value.
	q := postRepair(t, s, id, `{}`)
	var before uint64
	if _, err := fmt.Sscan(q.Header().Get(sessionEpochHeader), &before); err != nil {
		t.Fatalf("epoch header %q: %v", q.Header().Get(sessionEpochHeader), err)
	}

	w := postRepair(t, s, id, `{"apply": true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("repair status %d: %s", w.Code, w.Body)
	}
	var resp repairResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Fixed || !resp.Applied {
		t.Fatalf("want an applied fix, got %+v", resp)
	}
	if got := w.Header().Get(sessionEpochHeader); got != fmt.Sprint(before+1) {
		t.Fatalf("epoch header = %q, want %d (one bump per applied repair)", got, before+1)
	}

	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/report", nil))
	var rep struct {
		Report analyzeResult `json:"report"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Report.Schedulable {
		t.Fatal("session not schedulable after applied repair")
	}
}

// TestSessionRepairValidation: malformed parameters 400 at the wire
// boundary with the invalid-field convention — in particular budgets
// that would reach ppp.SplitNodes' maxNPR panic.
func TestSessionRepairValidation(t *testing.T) {
	s := repairTestServer(t)
	id := repairTestSession(t, s)
	cases := []struct {
		body string
		want string
	}{
		{`{"budgets": [10, 0]}`, "ppp: invalid maxNPR: 0"},
		{`{"budgets": [-3]}`, "ppp: invalid maxNPR: -3"},
		{`{"strategy": "magic"}`, "invalid strategy"},
		{`{"max_steps": -1}`, "invalid Config.MaxSteps"},
		{`{"beam": -1}`, "invalid Config.Beam"},
		{`{"max_candidates": -1}`, "invalid Config.MaxCandidates"},
		{`{"timeout_ms": -5}`, "invalid timeout_ms"},
		{`{"bogus_field": 1}`, "unknown field"},
	}
	for _, tc := range cases {
		w := postRepair(t, s, id, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.body, w.Code, w.Body)
			continue
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: body %q, want %q", tc.body, w.Body, tc.want)
		}
	}

	// Unknown session ids 404 like every session endpoint.
	if w := postRepair(t, s, "nope", `{}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", w.Code)
	}
}

// TestSessionRepairTimeoutBudget: an absurdly small timeout is the
// anytime contract, not an error — the response reports Stopped with
// the best partial repair.
func TestSessionRepairTimeoutBudget(t *testing.T) {
	s := repairTestServer(t)
	id := repairTestSession(t, s)
	// max_candidates rather than wall-clock would also stop it; use
	// both so the test is immune to scheduler timing.
	w := postRepair(t, s, id, `{"timeout_ms": 1, "max_candidates": 1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("repair status %d: %s", w.Code, w.Body)
	}
	var resp repairResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Stopped || resp.Fixed || resp.Applied {
		t.Fatalf("want a stopped partial result, got %+v", resp)
	}
}
