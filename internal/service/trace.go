package service

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/profiler"
)

// handleTrace serves GET /v1/trace/{id}: the recorded timeline of a
// recent request, rendered as a Chrome trace (load in chrome://tracing
// or Perfetto). The "service" track carries the request's own spans —
// decode, cache-lookup, queue-wait, simulate, encode — and, when the
// originating request opted in with "trace": true, the simulator's
// retained kernel/API/transfer intervals appear on their own tracks with
// the paper's FP/BP/WU stage attribution. This is the per-request analog
// of the paper's nvprof timelines: the same export path
// (profiler.ExportChromeTrace), pointed at one served request instead of
// one simulated epoch.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, badRequestError{fmt.Errorf("trace id missing (GET /v1/trace/{id})")})
		return
	}
	tr, ok := s.traces.Get(id)
	if !ok {
		notFound(w, fmt.Sprintf("no trace for request id %q (the store retains the most recent %d requests)", id, obs.DefaultStoreSize))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := traceProfile(tr).ExportChromeTrace(w); err != nil {
		// Headers are already out; the truncated body is the client's
		// signal. Nothing useful to write here.
		return
	}
}

// traceProfile lowers a request trace into one detailed
// profiler.Profile: service spans become marker intervals on a "service"
// track, and every attached simulator profile contributes its retained
// intervals on their original tracks.
func traceProfile(tr *obs.Trace) *profiler.Profile {
	spans := tr.Spans()
	var profs []*profiler.Profile
	capacity := len(spans)
	for _, a := range tr.Attachments() {
		if p, ok := a.Value.(*profiler.Profile); ok {
			capacity += len(p.Intervals())
			profs = append(profs, p)
		}
	}
	out := profiler.NewDetailed(capacity)
	for _, sp := range spans {
		out.Record(profiler.Interval{
			Kind:  profiler.KindMarker,
			Name:  sp.Name,
			Track: "service",
			Start: sp.Start,
			End:   sp.Start + sp.Dur,
		})
	}
	for _, p := range profs {
		out.Merge(p)
	}
	return out
}
