package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
)

func chainTask(t *testing.T, name string, wcets []int64, d, p int64) *Task {
	t.Helper()
	var b dag.Builder
	prev := -1
	for _, c := range wcets {
		v := b.AddNode(c)
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	return &Task{Name: name, G: b.MustBuild(), Deadline: d, Period: p}
}

func TestTaskValidate(t *testing.T) {
	ok := chainTask(t, "a", []int64{3, 4}, 10, 10)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Task)
	}{
		{"nil graph", func(x *Task) { x.G = nil }},
		{"zero period", func(x *Task) { x.Period = 0 }},
		{"zero deadline", func(x *Task) { x.Deadline = 0 }},
		{"negative deadline", func(x *Task) { x.Deadline = -1 }},
		{"unconstrained deadline", func(x *Task) { x.Deadline = x.Period + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := chainTask(t, "a", []int64{3, 4}, 10, 10)
			tc.mut(bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("invalid task accepted")
			}
		})
	}
}

func TestUtilizationDensityFeasible(t *testing.T) {
	task := chainTask(t, "u", []int64{4, 6}, 20, 40)
	if got := task.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Utilization = %g, want 0.25", got)
	}
	if got := task.Density(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Density = %g, want 0.5", got)
	}
	if !task.Feasible() {
		t.Error("task with L=10 D=20 must be feasible")
	}
	tight := chainTask(t, "t", []int64{15, 10}, 20, 40)
	if tight.Feasible() {
		t.Error("task with L=25 D=20 must be infeasible")
	}
}

func TestTaskSetBasics(t *testing.T) {
	a := chainTask(t, "a", []int64{2}, 10, 10)
	b := chainTask(t, "b", []int64{5}, 20, 20)
	c := chainTask(t, "c", []int64{8}, 40, 40)
	ts, err := NewTaskSet(a, b, c)
	if err != nil {
		t.Fatalf("NewTaskSet: %v", err)
	}
	if ts.N() != 3 {
		t.Fatalf("N = %d", ts.N())
	}
	wantU := 2.0/10 + 5.0/20 + 8.0/40
	if got := ts.Utilization(); math.Abs(got-wantU) > 1e-12 {
		t.Errorf("Utilization = %g, want %g", got, wantU)
	}
	if hp := ts.HigherPriority(2); len(hp) != 2 || hp[0] != a || hp[1] != b {
		t.Errorf("HigherPriority(2) wrong: %v", hp)
	}
	if lp := ts.LowerPriority(0); len(lp) != 2 || lp[0] != b || lp[1] != c {
		t.Errorf("LowerPriority(0) wrong: %v", lp)
	}
	if lp := ts.LowerPriority(2); len(lp) != 0 {
		t.Errorf("LowerPriority(last) = %v, want empty", lp)
	}
}

func TestEmptyTaskSetRejected(t *testing.T) {
	if _, err := NewTaskSet(); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestTaskSetValidatePropagates(t *testing.T) {
	bad := chainTask(t, "bad", []int64{2}, 10, 10)
	bad.Period = -1
	if _, err := NewTaskSet(bad); err == nil {
		t.Fatal("set with invalid task accepted")
	}
}

func TestSortDeadlineMonotonic(t *testing.T) {
	a := chainTask(t, "a", []int64{1}, 30, 30)
	b := chainTask(t, "b", []int64{1}, 10, 10)
	c := chainTask(t, "c", []int64{1}, 20, 20)
	d := chainTask(t, "d", []int64{1}, 20, 25)
	ts := &TaskSet{Tasks: []*Task{a, b, c, d}}
	ts.SortDeadlineMonotonic()
	var names []string
	for _, x := range ts.Tasks {
		names = append(names, x.Name)
	}
	// d has D=20,T=25; c has D=20,T=20 → c before d.
	if got := strings.Join(names, ""); got != "bcda" {
		t.Errorf("DM order = %q, want bcda", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := chainTask(t, "a", []int64{2, 3}, 10, 10)
	ts, _ := NewTaskSet(a)
	c := ts.Clone()
	c.Tasks[0].Period = 99
	if ts.Tasks[0].Period == 99 {
		t.Error("clone shares task storage")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var b dag.Builder
	r := b.AddNode(3)
	x := b.AddNode(4)
	y := b.AddNode(5)
	b.AddEdge(r, x)
	b.AddEdge(r, y)
	task := &Task{Name: "fork", G: b.MustBuild(), Deadline: 15, Period: 20}
	ts, _ := NewTaskSet(task, chainTask(t, "chain", []int64{7}, 9, 9))

	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.N() != 2 {
		t.Fatalf("round-trip N = %d", back.N())
	}
	got := back.Tasks[0]
	if got.Name != "fork" || got.Deadline != 15 || got.Period != 20 {
		t.Errorf("task params lost: %+v", got)
	}
	if got.G.N() != 3 || got.G.NumEdges() != 2 || got.G.Volume() != 12 {
		t.Errorf("graph lost: n=%d e=%d vol=%d", got.G.N(), got.G.NumEdges(), got.G.Volume())
	}
	if !got.G.HasEdge(0, 1) || !got.G.HasEdge(0, 2) {
		t.Error("edges lost in round trip")
	}
}

func TestJSONSingleNodeNoEdges(t *testing.T) {
	ts, _ := NewTaskSet(chainTask(t, "solo", []int64{5}, 7, 7))
	data, err := ts.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	if !strings.Contains(string(data), `"edges": []`) {
		t.Errorf("edges should encode as [], got:\n%s", data)
	}
	back := new(TaskSet)
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	// Validation texts are part of the /v1 error bodies; a decoder change
	// must keep them byte-identical.
	cases := []struct{ src, want string }{
		{`{"tasks":[{"name":"x","wcet":[0],"edges":[],"deadline":5,"period":5}]}`,
			`model: task "x": dag: node 0 has non-positive WCET 0`},
		{`{"tasks":[{"name":"x","wcet":[1],"edges":[[0,0]],"deadline":5,"period":5}]}`,
			`model: task "x": dag: self-loop on node 0`},
		{`{"tasks":[{"name":"x","wcet":[1],"edges":[],"deadline":9,"period":5}]}`,
			`model: task "x" has D 9 > T 5 (constrained deadlines required)`},
		{`{"tasks":[]}`, `model: empty task set`},
		{`{"tasks":[{"name":"x","wcet":[1,1],"edges":[[0,1],[1,0]],"deadline":5,"period":5}]}`,
			`model: task "x": dag: cycle detected`},
		{`{"tasks":[null]}`, `model: task "": dag: graph must have at least one node`},
		{`{"tasks":[{"name":"x","wcet":[1],"edges":[[0,5]],"deadline":5,"period":5}]}`,
			`model: task "x": dag: edge (0,5) out of range [0,1)`},
		{`{"tasks":[{"name":"x","wcet":[1],"edges":[],"deadline":0,"period":5}]}`,
			`model: task "x" has non-positive deadline 0`},
		// Type errors name the nested field path and win over validation
		// errors of earlier tasks: the whole set is decoded before any
		// task is lowered.
		{`{"tasks":[{"name":"x","wcet":[0],"edges":[],"deadline":5,"period":5},{"name":"y","wcet":["a"]}]}`,
			`json: cannot unmarshal string into Go struct field taskJSON.tasks.wcet of type int64`},
	}
	for i, c := range cases {
		ts := new(TaskSet)
		err := ts.UnmarshalJSON([]byte(c.src))
		if err == nil {
			t.Errorf("case %d: invalid JSON accepted", i)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("case %d: error %q, want %q", i, err, c.want)
		}
	}
}
