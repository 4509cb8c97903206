package profiler

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry in the Chrome trace-event format ("X" complete
// events), the same format nvprof timelines are commonly converted to.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// ExportChromeTrace writes the retained detailed intervals in Chrome
// trace-event JSON (load via chrome://tracing or Perfetto). Tracks map to
// thread IDs; all activity shares one process, named "dgxsim" via a
// process_name metadata event so multi-trace comparisons in Perfetto
// stay labeled. An empty profile exports an empty (but valid) document.
func (p *Profile) ExportChromeTrace(w io.Writer) error {
	ivs := p.intervals
	// Stable track numbering: sorted track names.
	trackSet := map[string]bool{}
	for _, iv := range ivs {
		trackSet[iv.Track] = true
	}
	tracks := make([]string, 0, len(trackSet))
	for t := range trackSet {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	tid := make(map[string]int, len(tracks))
	for i, t := range tracks {
		tid[t] = i + 1
	}

	events := make([]chromeEvent, 0, len(ivs)+len(tracks)+1)
	if len(ivs) > 0 {
		events = append(events, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   1,
			Args:  map[string]string{"name": "dgxsim"},
		})
	}
	for name, id := range tid {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   id,
			Args:  map[string]string{"name": name},
		})
	}
	// Metadata events first, in deterministic order.
	sort.Slice(events, func(i, j int) bool { return events[i].TID < events[j].TID })
	for _, iv := range ivs {
		events = append(events, chromeEvent{
			Name:  iv.Name,
			Cat:   iv.Kind.String(),
			Phase: "X",
			TS:    float64(iv.Start.Nanoseconds()) / 1e3,
			Dur:   float64(iv.Duration().Nanoseconds()) / 1e3,
			PID:   1,
			TID:   tid[iv.Track],
			Args:  map[string]string{"stage": iv.Stage.String()},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
