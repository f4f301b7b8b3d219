package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Run    string `json:"run"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps the traced repetitions' spans in memory; write dumps them when
// the run ends. A nil *spans records nothing, so untraced code paths carry
// no instrumentation cost beyond a nil check.
type spans struct {
	run  string
	t0   time.Time
	list []span
	open []int
}

func newSpans() *spans {
	return &spans{t0: time.Now()}
}

// begin opens a span nested in the innermost open one and returns its id.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.list = append(s.list, span{Run: s.run, Name: name, Parent: parent, Start: time.Since(s.t0).Nanoseconds()})
	id := len(s.list) - 1
	s.open = append(s.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	s.list[id].End = time.Since(s.t0).Nanoseconds()
	s.open = s.open[:len(s.open)-1]
}

// selfTimes sums, per span name, the span durations minus the time their
// child spans cover.
func (s *spans) selfTimes() map[string]int64 {
	self := make(map[string]int64)
	for _, sp := range s.list {
		self[sp.Name] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[s.list[sp.Parent].Name] -= sp.End - sp.Start
		}
	}
	return self
}

func (s *spans) write(path string, env map[string]any) error {
	data, err := json.MarshalIndent(map[string]any{
		"env":         env,
		"self_ns":     s.selfTimes(),
		"spans":       s.list,
		"time_origin": s.t0.Format(time.RFC3339Nano),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
