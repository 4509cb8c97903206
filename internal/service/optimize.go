// POST /v1/optimize: search a configuration space for the Pareto
// frontier of an objective against GPU cost. The handler expands the
// space (internal/optimize), runs every candidate through the same
// per-cell path as /v1/simulate and /v1/sweep — so candidates hit the
// result cache, coalesce onto in-flight runs, and inherit the overload
// taxonomy (429 queue-full, 503 deadline-queued) — then judges
// dominance. The simulator is deterministic and the frontier is
// computed in candidate order, so the same request always returns a
// byte-identical body.
package service

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// OptimizeRequest is the /v1/optimize body: a base workload (the model
// under study), the objective, an optional per-GPU memory cap, and the
// searched axes (empty axes take internal/optimize's defaults: GPUs
// 1..8, both methods, the base batch, the healthy machine).
type OptimizeRequest struct {
	SchemaVersion int `json:"schemaVersion,omitempty"`
	// Trace opts every candidate into simulator-stage tracing (see
	// workloadRequest.Trace).
	Trace bool          `json:"trace,omitempty"`
	Base  core.Workload `json:"base"`
	// Objective: "min_epoch_time" (default) or "max_throughput_per_gpu".
	Objective string `json:"objective,omitempty"`
	// MemoryCapGiB drops candidates whose root-GPU usage exceeds the cap
	// (<= 0: no cap).
	MemoryCapGiB float64        `json:"memoryCapGiB,omitempty"`
	Space        optimize.Space `json:"space,omitempty"`
}

// OptimizeResponse is the /v1/optimize body: the search accounting and
// the frontier, GPU count ascending, with per-point provenance (the
// exact workload, its cache fingerprint, and the measured metrics).
type OptimizeResponse struct {
	SchemaVersion int `json:"schemaVersion"`
	optimize.Result
}

func (r OptimizeRequest) version() int           { return r.SchemaVersion }
func (r OptimizeRequest) routed() *core.Workload { return &r.Base }

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request, req OptimizeRequest) {
	tr := obs.FromContext(r.Context())
	obj, err := optimize.ParseObjective(req.Objective)
	if err != nil {
		httpError(w, badRequestError{err})
		return
	}
	cands := optimize.Candidates(req.Base, req.Space)
	for i, wl := range cands {
		if err := wl.Validate(); err != nil {
			httpError(w, badRequestError{fmt.Errorf("candidate %d: %w", i, err)})
			return
		}
	}
	if req.Trace {
		for i := range cands {
			cands[i] = withTracing(cands[i])
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// The grid hands over preserialized responses; the optimizer judges
	// dominance on the numbers, so rebuild the report structs from the
	// cached bytes (a decode per candidate — the search itself simulated
	// or cache-served every cell, so this is noise by comparison).
	reps := make([]*core.Report, len(cands))
	hits, err := s.runGrid(ctx, len(cands), func(i int) (string, core.Workload) {
		return fmt.Sprintf("cand[%d] ", i), cands[i]
	}, func(i int, c *cached) (err error) {
		reps[i], err = decodeCachedReport(c.body)
		return err
	})
	if err != nil {
		httpError(w, err)
		return
	}
	res, err := optimize.Frontier(cands, reps, obj, req.MemoryCapGiB)
	if err != nil {
		httpError(w, err)
		return
	}
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d", hits))
	w.Header().Set("X-Sim-Duration", tr.Dur("simulate").String())
	writeJSON(w, OptimizeResponse{SchemaVersion: SchemaVersion, Result: res})
}
