package model

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dag"
)

// taskJSON is the on-disk form of one task: explicit node WCETs and edge
// list, so task sets can be exchanged with other tools.
type taskJSON struct {
	Name     string   `json:"name"`
	WCET     []int64  `json:"wcet"`
	Edges    [][2]int `json:"edges"`
	Deadline int64    `json:"deadline"`
	Period   int64    `json:"period"`
}

type taskSetJSON struct {
	Tasks []taskJSON `json:"tasks"`
}

// MarshalJSON encodes the task as {name, wcet, edges, deadline, period}.
func (t *Task) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.toJSON())
}

// toJSON is the interchange form of t; edges encode as [] rather than
// null when the graph has none.
func (t *Task) toJSON() taskJSON {
	edges := t.G.Edges()
	if edges == nil {
		edges = [][2]int{}
	}
	return taskJSON{
		Name:     t.Name,
		WCET:     t.G.WCETs(),
		Edges:    edges,
		Deadline: t.Deadline,
		Period:   t.Period,
	}
}

// UnmarshalJSON decodes and validates a task.
func (t *Task) UnmarshalJSON(data []byte) error {
	var tj taskJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return err
	}
	return t.fromJSON(&tj)
}

// fromJSON lowers the interchange form onto t: it builds the graph and
// validates the task. Both decoders share it, so a task set is parsed
// once and each task lowered once.
func (t *Task) fromJSON(tj *taskJSON) error {
	var b dag.Builder
	for _, c := range tj.WCET {
		b.AddNode(c)
	}
	for _, e := range tj.Edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return fmt.Errorf("model: task %q: %w", tj.Name, err)
	}
	t.Name = tj.Name
	t.G = g
	t.Deadline = tj.Deadline
	t.Period = tj.Period
	return t.Validate()
}

// MarshalJSON encodes the set with tasks in priority order.
func (ts *TaskSet) MarshalJSON() ([]byte, error) {
	out := taskSetJSON{Tasks: make([]taskJSON, len(ts.Tasks))}
	for i, t := range ts.Tasks {
		out.Tasks[i] = t.toJSON()
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON decodes and validates a full task set.
func (ts *TaskSet) UnmarshalJSON(data []byte) error {
	var sj taskSetJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	ts.Tasks = ts.Tasks[:0]
	for i := range sj.Tasks {
		t := new(Task)
		if err := t.fromJSON(&sj.Tasks[i]); err != nil {
			return err
		}
		ts.Tasks = append(ts.Tasks, t)
	}
	return ts.Validate()
}

// WriteJSON writes the set to w in the interchange format.
func (ts *TaskSet) WriteJSON(w io.Writer) error {
	data, err := ts.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadJSON reads a task set from r.
func ReadJSON(r io.Reader) (*TaskSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ts := new(TaskSet)
	if err := ts.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return ts, nil
}
