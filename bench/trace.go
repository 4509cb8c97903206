package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Spans of one op share a trace id; parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	name          string
	trace         string
	id, parent    int
	client        int
	start, finish time.Duration // since the tracer began
}

func (s span) dur() time.Duration { return s.finish - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: callers check for it before timing anything.
type tracer struct {
	began  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{began: time.Now()} }

// id reserves a span id, so a parent's id is known before its children
// finish.
func (t *tracer) id() int { return int(t.nextID.Add(1)) }

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int, name, trace string, client int, start, finish time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, trace: trace, id: id, parent: parent, client: client,
		start: start.Sub(t.began), finish: finish.Sub(t.began),
	})
}

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of it its children cover, in seconds.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, selfTime(s, children[s.id]).Seconds())
		}
	}
	return out
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.finish, parent.finish)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := time.Duration(0), parent.start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - covered
}

// serverTrace is the Chrome trace dgxsimd serves at /v1/trace/{id}.
type serverTrace struct {
	TraceEvents []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		Dur   float64 `json:"dur"`
	} `json:"traceEvents"`
}

// fold adds the spans of one server-side request trace as children of
// the client span that sent it. Server timestamps are offsets from the
// moment the server began handling the request, which is placed at the
// client span's start.
func (t *tracer) fold(body []byte, trace string, parent, client int, sent time.Time) error {
	var st serverTrace
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode server trace: %w", err)
	}
	for _, e := range st.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		start := sent.Add(time.Duration(e.TS * 1e3))
		t.record(t.id(), parent, "dgxsimd."+e.Name, trace, client, start, start.Add(time.Duration(e.Dur*1e3)))
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" complete events plus
// thread-name metadata), the format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// write exports every span as a Chrome trace, one track per client, with
// the environment stamp under otherData.
func (t *tracer) write(path string, env envStamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans)+4)
	tracks := map[int]bool{}
	for _, s := range t.spans {
		tracks[s.client] = true
	}
	for c := range tracks {
		name := fmt.Sprintf("client %d", c)
		if c == probeTrack {
			name = "layer probes"
		}
		events = append(events, chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: c + 1,
			Args: map[string]any{"name": name}})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].TID < events[j].TID })
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Phase: "X", PID: 1, TID: s.client + 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "trace": s.trace},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": env})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
