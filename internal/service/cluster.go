// The fleet-simulation endpoint: POST /v1/cluster/simulate runs a
// cluster.Spec — N simulated DGX-1 nodes serving a job trace under a
// placement policy — and returns the cluster-level outcome (JCT and
// queueing-delay distributions, utilization, makespan). The whole
// simulation is one admission-controlled pool task, so it inherits the
// service's overload semantics: a full queue sheds it with 429 +
// Retry-After before any work starts, and the request deadline
// propagates into every scheduling epoch and pricing simulation (504
// mid-work, 499 when the client goes away).
package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// ClusterRequest is the versioned /v1/cluster/simulate body: a
// cluster.Spec plus schemaVersion.
type ClusterRequest struct {
	SchemaVersion int `json:"schemaVersion"`
	cluster.Spec
}

// ClusterResponse carries the cluster-level outcome.
type ClusterResponse struct {
	SchemaVersion int             `json:"schemaVersion"`
	Result        *cluster.Result `json:"result"`
}

func (r ClusterRequest) version() int { return r.SchemaVersion }

// routed is nil: a fleet spec is a whole trace, not a cached cell, so it
// routes by content.
func (ClusterRequest) routed() *core.Workload { return nil }

func (s *Server) handleClusterSimulate(w http.ResponseWriter, r *http.Request, req ClusterRequest) {
	tr := obs.FromContext(r.Context())
	if err := req.Spec.Validate(); err != nil {
		httpError(w, badRequestError{err})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	// One pool task for the whole fleet simulation: TrySubmit is the
	// admission decision (full queue -> 429 before any pricing work), and
	// the task runs on a worker so cluster simulations compete with
	// single-node simulations for the same bounded capacity instead of
	// bypassing it. The handler goroutine waits; cancellation reaches the
	// event loop through ctx.
	var (
		res    *cluster.Result
		simErr error
		done   = make(chan struct{})
	)
	submitted := time.Now()
	task := func() {
		defer close(done)
		tr.AddSpan("queue-wait", submitted, time.Now())
		defer func() {
			if p := recover(); p != nil {
				s.pool.recordPanic()
				simErr = fmt.Errorf("panic: %v", p)
			}
		}()
		start := time.Now()
		res, simErr = cluster.Simulate(ctx, req.Spec)
		if simErr == nil {
			s.clusterJobs.Add(uint64(res.Jobs))
			s.clusterSim.Observe(time.Since(start))
		}
	}
	if err := s.pool.TrySubmit(task); err != nil {
		httpError(w, err)
		return
	}
	<-done
	if simErr != nil {
		httpError(w, simErr)
		return
	}
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	// Fleet results are not result-cached (a spec is a whole trace, not a
	// cell); MISS records "this request computed it" for the access log's
	// disposition field and the X-Cache surface clients already read.
	w.Header().Set("X-Cache", "MISS")
	w.Header().Set("X-Sim-Duration", tr.Dur("cluster.simulate").String())
	writeJSON(w, ClusterResponse{SchemaVersion: SchemaVersion, Result: res})
}
