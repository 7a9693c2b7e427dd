package engine_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	lpdag "repro"
	"repro/internal/engine"
)

// fuzzTargets are the request bodies FuzzServeBodies drives; "{id}" is
// a session created for that input alone.
var fuzzTargets = []string{
	"/v1/analyze",
	"/v1/sessions",
	"/v1/sessions/{id}/edits",
	"/v1/sessions/{id}/admit",
	"/v1/sessions/{id}/repair",
}

// FuzzServeBodies feeds arbitrary bytes to the JSON bodies of POST
// /v1/analyze and the session create, edits, admit and repair
// endpoints. The server must never panic, must answer with a status
// the API documents for a client-supplied body, and must phrase every
// non-2xx reply as a JSON {"error": ...} object.
func FuzzServeBodies(f *testing.F) {
	e := engine.New(engine.Config{})
	f.Cleanup(e.Close)
	// A small body cap keeps each input's analysis cheap and makes the
	// 413 path reachable.
	h := engine.NewServer(e, engine.ServerConfig{MaxBodyBytes: 4 << 10})

	fig1, err := lpdag.PaperExample().MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: bodies the server tests send, valid and invalid.
	for _, seed := range []struct {
		target int
		body   string
	}{
		{0, fmt.Sprintf(`{"cores": 4, "requests": [{"taskset": %s}, {"taskset": %s, "method": "lp-max"}]}`, fig1, fig1)},
		{0, fmt.Sprintf(`{"cores": 2, "requests": [{"taskset": %s}, {"taskset": %s, "method": "lp-max", "cores": 4}, {}]}`,
			binaryAcceptTaskSet, binaryAcceptTaskSet)},
		{0, `{"requests": [`},
		{0, `{"bogus": 1}`},
		{0, `{"requests": []}`},
		{0, `{"requests": []}{}`},
		{0, fmt.Sprintf(`{"cores": 4611686018427387904, "requests": [{"taskset": %s}]}`, fig1)},
		{1, fmt.Sprintf(`{"cores": 4, "method": "lp-ilp", "taskset": %s}`, fig1)},
		{1, `{"cores": 2}`},
		{2, `{"edits": [{"op": "set_cores", "cores": 4}, {"op": "remove", "name": "hi"}]}`},
		{2, `{"edits": [{"op": "add", "task": {"name":"probe","wcet":[1],"edges":[],"deadline":1000,"period":1000}, "at": 1},
			{"op": "set_priority", "name": "probe", "to": 0}]}`},
		{2, `{"edits": [{"op": "remove", "index": 0}, {"op": "remove", "index": 99}]}`},
		{3, `{"task": {"name":"c","wcet":[1],"edges":[],"deadline":1000,"period":1000}}`},
		{3, `{"task": {"name":"c","wcet":[2,3],"edges":[[0,1]],"deadline":9,"period":9}, "at": 0}`},
		{4, `{"seed": 7, "apply": true}`},
		{4, `{"timeout_ms": 1, "max_candidates": 1}`},
		{4, `{"budgets": [10, 0]}`},
		{4, `{"strategy": "magic"}`},
	} {
		f.Add(uint8(seed.target), []byte(seed.body))
	}

	createBody := fmt.Sprintf(`{"cores": 2, "method": "lp-ilp", "taskset": %s}`, binaryAcceptTaskSet)
	f.Fuzz(func(t *testing.T, target uint8, body []byte) {
		path := fuzzTargets[int(target)%len(fuzzTargets)]
		if strings.Contains(path, "{id}") {
			w := post(t, h, "/v1/sessions", createBody)
			if w.Code != http.StatusCreated {
				t.Fatalf("create: status %d: %s", w.Code, w.Body)
			}
			id := sessionID(t, w)
			defer del(t, h, "/v1/sessions/"+id)
			path = strings.Replace(path, "{id}", id, 1)
		}
		w := post(t, h, path, string(body))
		switch w.Code {
		case http.StatusOK, http.StatusCreated:
			if path == "/v1/sessions" {
				del(t, h, "/v1/sessions/"+sessionID(t, w))
			}
			return
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
		}
		var reply map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s: status %d body is not JSON (%v): %s", path, w.Code, err, w.Body)
		}
		if msg, ok := reply["error"].(string); !ok || msg == "" || len(reply) != 1 {
			t.Fatalf("%s: status %d body is not {\"error\": ...}: %s", path, w.Code, w.Body)
		}
	})
}
