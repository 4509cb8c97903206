// Package service is the simulation-as-a-service layer: an HTTP/JSON
// API over the internal/core façade, backed by a bounded worker pool
// (parallel fan-out of independent simulations) and a deterministic LRU
// result cache (the simulator is seeded, so whole-workload memoization
// is exact). cmd/dgxsimd wraps it in a daemon; internal/experiments
// reuses its ordered fan-out, Each, to parallelize the paper sweeps.
//
// Endpoints:
//
//	GET  /v1/          machine-readable API index: every endpoint, its
//	                   methods, and the content types it produces
//	POST /v1/simulate  one core.Workload -> core.Report
//	POST /v1/compare   one workload under p2p and nccl -> ordered reports
//	                   (p2p first, then nccl)
//	POST /v1/sweep     a models x hardware x gpus x batches x methods x
//	                   protocols x images grid, fanned out on the pool ->
//	                   reports in grid order.
//	                   Accept: application/x-ndjson streams one record
//	                   per cell (grid order, bounded memory) plus a
//	                   trailing summary instead of one buffered body
//	POST /v1/optimize  search GPUs x batch x method x hardware x protocol
//	                   x faults for the Pareto frontier of an objective
//	                   (min epoch time, max throughput/GPU; optional
//	                   memory cap) vs GPU cost, with per-point provenance
//	POST /v1/validate  check a workload without simulating it -> validity,
//	                   fingerprint, and the normalized workload
//	POST /v1/cluster/simulate
//	                   a cluster.Spec (fleet of simulated DGX-1 nodes +
//	                   job trace + placement policy) -> JCT/queueing
//	                   distributions, utilization, makespan
//	GET  /v1/models    the model zoo
//	GET  /v1/hardware  the machines a workload's hardware field accepts
//	                   (DGX-1, Pascal DGX-1, DGX-2, DGX A100, DGX H100)
//	                   and the NCCL protocol spellings
//	GET  /v1/trace/{id} the recorded timeline of a recent request as a
//	                   Chrome trace (service spans; plus the inner FP/BP/WU
//	                   simulator stages when the request set "trace": true)
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition: requests, latency
//	                   histograms, in-flight gauges, cache
//	                   hits/misses/evictions, pool depth/queue-wait/panics
//
// Every failure, on every endpoint, is one JSON envelope —
// {"error": {"code", "message", "retryable"}} — with a stable
// machine-readable code (queue_full, deadline_queued, deadline,
// client_gone, bad_request, invalid_argument, body_too_large,
// schema_version, method_not_allowed, not_found, internal); see
// errors.go.
//
// Every request is assigned (or propagates) an X-Request-ID and records a
// span breakdown — decode, cache-lookup, queue-wait, simulate, encode —
// retrievable at /v1/trace/{id} while it remains in the bounded trace
// store (see internal/obs). When Config.AccessLog is set, each request
// also emits one structured JSON log line (log/slog).
//
// Every JSON body — request and response — carries a schemaVersion field
// (currently 1). Requests may omit it (treated as current); any other
// value is rejected with 400 so old clients fail loudly when the wire
// format moves, instead of silently misparsing. Each endpoint's method,
// body cap and strict request decoding are one row of the endpoint table
// in index.go, which the gateway routes through as well.
//
// Everything is stdlib-only: net/http, encoding/json, log/slog, sync.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/profiler"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent simulations (<= 0: runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the admission queue: how many simulation tasks
	// may wait for a worker before new requests are shed with 429
	// instead of blocking (<= 0: one slot per worker).
	QueueDepth int
	// CacheSize bounds the result cache (<= 0: the default 1024).
	CacheSize int
	// Timeout bounds a request's total time in the service, admission
	// queueing included (<= 0: 60s). A deadline that expires while the
	// request is still waiting for a queue slot sheds it with 503 +
	// Retry-After — the server could not have met it.
	Timeout time.Duration
	// TraceStore bounds how many recent request traces /v1/trace can
	// serve (<= 0: the default 256).
	TraceStore int
	// AccessLog, when non-nil, receives one JSON line per request:
	// request id, method, path, status, cache disposition, queue depth,
	// and latency. Nil disables access logging.
	AccessLog io.Writer
	// Persist, when non-nil, snapshots cached response bodies to disk:
	// NewServer pre-warms the result cache from the store, and every
	// fresh simulation's bytes are written through to it (asynchronously,
	// bounded — see internal/persist), so a restarted daemon serves its
	// working set without re-simulating. Traced entries (which retain a
	// simulator profile for /v1/trace) are not persisted: a snapshot
	// cannot carry the profile, and serving a traced body without its
	// timeline would silently break the trace contract. The caller owns
	// the store's lifecycle (Close after the server stops serving).
	Persist *persist.Store
}

// Server implements the simulation service. Create one with NewServer,
// serve Handler(), and Close it to release the pool.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *memo.Group[string, *cached]
	metrics *obs.Registry
	traces  *obs.Store
	logger  *slog.Logger
	mux     *http.ServeMux

	// Counters the handlers bump; the per-endpoint request series are
	// bound by instrument.
	shed          *obs.Counter // requests refused under overload (429, 503)
	coalesced     *obs.Counter // cells served by another request's flight
	streams       *obs.Counter // NDJSON sweep responses, completed or not
	streamedCells *obs.Counter // cell records flushed across all streams
	clusterJobs   *obs.Counter // jobs scheduled across fleet simulations
	clusterSim    *obs.Histogram
}

// latencyBuckets are the histogram upper bounds (seconds) of the request
// and fleet-simulation durations: cache hits land in the low-millisecond
// buckets, cold inception-class simulations in the seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// NewServer builds a ready-to-serve instance.
func NewServer(cfg Config) *Server {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		pool:    NewPoolQueue(cfg.Workers, cfg.QueueDepth),
		cache:   memo.New[string, *cached](cfg.CacheSize),
		metrics: obs.NewRegistry(),
		traces:  obs.NewStore(cfg.TraceStore),
		mux:     http.NewServeMux(),
	}
	if cfg.AccessLog != nil {
		s.logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	if cfg.Persist != nil {
		// Boot-time warm-up: every valid snapshot becomes a live cache
		// entry, byte-identical to the response that produced it. A Load
		// error means the directory itself was unreadable — Open already
		// vetted it, so this is best-effort by design (the daemon must
		// boot cold rather than not at all); corrupt entries are skipped
		// and counted inside the store.
		_ = cfg.Persist.Load(func(key string, body []byte) {
			s.cache.Add(key, &cached{body: body})
		})
	}
	s.registerMetrics()
	// The mux is registered from the apiEndpoints table (index.go) — the
	// same table GET /v1/ advertises, so routing and discovery cannot
	// drift apart.
	for _, e := range apiEndpoints {
		s.mux.HandleFunc(e.pattern, s.instrument(metricsLabel(e.pattern), e.handler(s)))
	}
	return s
}

// registerMetrics registers the process-wide series: uptime, the
// counters the handlers bump, and func-backed views of the result cache,
// the body memo, the snapshot store, the compile counter and the pool.
// The persist series exist only when a store is configured: their
// absence distinguishes "no -cache-dir" from "nothing persisted yet".
func (s *Server) registerMetrics() {
	m := s.metrics
	start := time.Now()
	m.Func("dgxsimd_uptime_seconds", func() float64 { return time.Since(start).Seconds() })
	m.Func("dgxsimd_cache_size", func() float64 { return float64(s.cache.Stats().Size) })
	m.Func("dgxsimd_cache_max", func() float64 { return float64(s.cache.Stats().Max) })
	m.Func("dgxsimd_cache_hits_total", func() float64 { return float64(s.cache.Stats().Hits) })
	m.Func("dgxsimd_cache_misses_total", func() float64 { return float64(s.cache.Stats().Misses) })
	m.Func("dgxsimd_cache_evictions_total", func() float64 { return float64(s.cache.Stats().Evictions) })
	// The body memo is process-wide (see bodymemo.go).
	m.Func("dgxsimd_decode_memo_hits_total", func() float64 { return float64(DecodeMemoStats().Hits) })
	m.Func("dgxsimd_decode_memo_misses_total", func() float64 { return float64(DecodeMemoStats().Misses) })
	m.Func("dgxsimd_decode_memo_evictions_total", func() float64 { return float64(DecodeMemoStats().Evictions) })
	if st := s.cfg.Persist; st != nil {
		m.Func("dgxsimd_persist_loaded_total", func() float64 { return float64(st.Stats().Loaded) })
		m.Func("dgxsimd_persist_skipped_total", func() float64 { return float64(st.Stats().Skipped) })
		m.Func("dgxsimd_persist_writes_total", func() float64 { return float64(st.Stats().Writes) })
		m.Func("dgxsimd_persist_write_errors_total", func() float64 { return float64(st.Stats().WriteErrors) })
		m.Func("dgxsimd_persist_dropped_total", func() float64 { return float64(st.Stats().Dropped) })
	}
	s.shed = m.Counter("dgxsimd_shed_total")
	s.coalesced = m.Counter("dgxsimd_coalesced_total")
	s.streams = m.Counter("dgxsimd_sweep_streams_total")
	s.streamedCells = m.Counter("dgxsimd_sweep_streamed_cells_total")
	// How many train.Windows this process actually compiled — the compile
	// economy of the split artifact key (cells differing only in
	// extrapolation parameters share one compiled window).
	m.Func("dgxsimd_compile_windows_total", func() float64 { return float64(core.CompileCount()) })
	s.clusterJobs = m.Counter("dgxsimd_cluster_jobs_total")
	// One observation per fleet simulation (a whole trace), so its
	// distribution is kept apart from the per-request latencies.
	s.clusterSim = m.Histogram("dgxsimd_cluster_sim_seconds", latencyBuckets)
	// Admission-queue occupancy: depth is the tasks currently waiting (or
	// blocked submitting), capacity the -queue-depth bound sheds kick in
	// past.
	m.Func("dgxsimd_admission_queue_depth", func() float64 { return float64(s.pool.Stats().Queued) })
	m.Func("dgxsimd_admission_queue_capacity", func() float64 { return float64(s.pool.Stats().QueueDepth) })
	m.Func("dgxsimd_pool_workers", func() float64 { return float64(s.pool.Stats().Workers) })
	m.Func("dgxsimd_pool_queued", func() float64 { return float64(s.pool.Stats().Queued) })
	m.Func("dgxsimd_pool_active", func() float64 { return float64(s.pool.Stats().Active) })
	m.Func("dgxsimd_pool_completed_total", func() float64 { return float64(s.pool.Stats().Completed) })
	m.Func("dgxsimd_pool_panics_total", func() float64 { return float64(s.pool.Stats().Panics) })
	m.Func("dgxsimd_pool_queue_wait_seconds_total", func() float64 { return s.pool.Stats().QueueWait.Seconds() })
}

// requestMetrics are one endpoint's request series, registered once when
// the endpoint is wired so the request path only touches atomics. The
// request count is the duration histogram's count, read at render time.
type requestMetrics struct {
	errors   *obs.Counter
	inflight *obs.Gauge
	duration *obs.Histogram
}

func (s *Server) requestMetrics(path string) requestMetrics {
	dur := s.metrics.Histogram("dgxsimd_request_duration_seconds", latencyBuckets, "path", path)
	s.metrics.Func("dgxsimd_requests_total", func() float64 { return float64(dur.Count()) }, "path", path)
	return requestMetrics{
		errors:   s.metrics.Counter("dgxsimd_request_errors_total", "path", path),
		inflight: s.metrics.Gauge("dgxsimd_inflight", "path", path),
		duration: dur,
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool. The server must not serve requests
// afterwards.
func (s *Server) Close() { s.pool.Close() }

// CacheStats is a snapshot of the result cache's size and hit, miss and
// eviction counters.
type CacheStats = memo.Stats

// CacheStats exposes the result-cache counters (also on /metrics).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// PoolStats exposes the worker-pool counters (also on /metrics).
func (s *Server) PoolStats() PoolStats { return s.pool.Stats() }

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards the http.Flusher upgrade the embedded interface would
// otherwise hide: without it, anything streaming through an instrumented
// handler silently stopped flushing (the type assertion inside
// http.ResponseWriter consumers failed against the wrapper).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request-scoped observability
// layer: an X-Request-ID (fresh, or propagated from the client), a span
// trace carried through context and retained for /v1/trace/{id}, request
// counting and latency capture, and one structured access-log line.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	m := s.requestMetrics(path)
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewID()
		}
		tr := obs.NewTrace(id)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		// Assigned under its canonical key: Header.Set would canonicalize
		// "X-Request-ID" again on every response.
		w.Header()["X-Request-Id"] = []string{id}
		var queueDepth int64 // at arrival, for the access log only
		if s.logger != nil {
			queueDepth = s.pool.queued.Load()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		m.inflight.Add(1)
		start := time.Now()
		h(rec, r)
		d := time.Since(start)
		m.inflight.Add(-1)
		m.duration.Observe(d)
		if rec.status >= 400 {
			m.errors.Add(1)
		}
		shed := rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable
		if shed {
			s.shed.Add(1)
			// A zero-length marker span, so a shed request's trace says
			// why it carries no simulate span.
			now := time.Now()
			tr.AddSpan("shed", now, now)
		}
		s.traces.Put(tr)
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", path),
				slog.Int("status", rec.status),
				slog.String("cache", rec.Header().Get("X-Cache")),
				slog.String("disposition", disposition(shed, rec.Header().Get("X-Cache"))),
				slog.Int64("queueDepth", queueDepth),
				slog.Duration("latency", d),
			)
		}
	}
}

// disposition summarizes how a request was resolved for the access log:
// shed (refused under overload), or the cache disposition of its
// primary cell; endpoints without one log "".
func disposition(shed bool, cacheHdr string) string {
	switch {
	case shed:
		return "shed"
	case cacheHdr == "HIT":
		return "hit"
	case cacheHdr == "COALESCED":
		return "coalesced"
	case cacheHdr == "MISS":
		return "miss"
	}
	return ""
}

// retryAfterSeconds is the Retry-After hint on shed responses. Sheds
// mean the admission queue is full of work bounded by Timeout, so "soon"
// is honest; a fixed small value also keeps retry storms spread by the
// clients' own jitter rather than synchronized by ours.
const retryAfterSeconds = "1"

// badRequestError marks client mistakes (malformed body, invalid
// workload) so httpError maps them to 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// SchemaVersion is the wire-format version of every request and response
// body. Requests may omit it (zero means "current"); any other mismatch
// is a 400.
const SchemaVersion = 1

// workloadRequest is the versioned /v1/simulate, /v1/compare, and
// /v1/validate request body: a core.Workload plus schemaVersion and the
// tracing opt-in.
type workloadRequest struct {
	SchemaVersion int `json:"schemaVersion"`
	// Trace opts the request into simulator-stage tracing: the run
	// retains profiler intervals (TraceIntervals defaulted if unset) so
	// /v1/trace/{id} can render the inner FP/BP/WU timeline alongside
	// the service spans.
	Trace bool `json:"trace,omitempty"`
	core.Workload
}

func (r workloadRequest) version() int           { return r.SchemaVersion }
func (r workloadRequest) routed() *core.Workload { return &r.Workload }

// workload is the request's workload, traced if it opted in.
func (r workloadRequest) workload() core.Workload {
	if r.Trace {
		return withTracing(r.Workload)
	}
	return r.Workload
}

// defaultTraceIntervals is the interval-retention cap applied when a
// request opts into tracing without choosing its own TraceIntervals —
// enough to cover the simulated steady-state window of every zoo model.
const defaultTraceIntervals = 4096

// withTracing turns on simulator interval retention for a trace opt-in.
// TraceIntervals is part of the workload fingerprint, so traced runs
// cache separately from untraced ones — a traced report always carries
// its timeline.
func withTracing(w core.Workload) core.Workload {
	if w.TraceIntervals == 0 {
		w.TraceIntervals = defaultTraceIntervals
	}
	return w
}

// reportBody is the versioned report envelope: the core.Report fields
// promoted to the top level plus schemaVersion.
type reportBody struct {
	SchemaVersion int `json:"schemaVersion"`
	*core.Report
}

// marshalReport is the one serialization every endpoint shares, so a
// sweep cell is byte-identical to the /v1/simulate response for the
// same configuration.
func marshalReport(r *core.Report) ([]byte, error) {
	return json.Marshal(reportBody{SchemaVersion: SchemaVersion, Report: r})
}

// cached is one result-cache value: the preserialized response envelope
// (the exact bytes marshalReport produced, schemaVersion included) plus,
// for traced runs only, the simulator profile whose retained intervals
// back /v1/trace. Body is immutable by contract — every holder shares
// the one slice and only ever writes it to a ResponseWriter — which is
// what makes cache hits byte-identical by construction.
type cached struct {
	body    []byte
	profile *profiler.Profile
}

// newCached serializes a freshly simulated report into the immutable
// value the cache, its flights, and every handler share. This is
// the only place a report is marshaled on the miss path; hits reuse the
// bytes verbatim. The profile rides along only when the run retained
// intervals (a traced workload — which fingerprints separately), so
// untraced entries hold nothing but the response bytes.
func newCached(r *core.Report) (*cached, error) {
	b, err := marshalReport(r)
	if err != nil {
		return nil, err
	}
	c := &cached{body: b}
	if r.Profile != nil && r.Profile.Retained() > 0 {
		c.profile = r.Profile
	}
	return c, nil
}

// envelopePrefix is the leading bytes of every marshaled reportBody:
// the opening brace and the schemaVersion field. What follows it is the
// report's own fields and closing brace — '{' plus that tail is exactly
// json.Marshal(*core.Report), since reportBody only prepends the
// schemaVersion field to the report's promoted fields. /v1/compare
// splices that tail into per-method records, which carry the
// schemaVersion at their outer level instead.
var envelopePrefix = []byte(fmt.Sprintf(`{"schemaVersion":%d,`, SchemaVersion))

// decodeCachedReport rebuilds the report struct from a cached envelope
// for the few consumers that need the numbers rather than the bytes
// (the optimizer judging dominance). The profile is not on the wire and
// stays nil; byte-cache consumers never need it.
func decodeCachedReport(body []byte) (*core.Report, error) {
	var rb reportBody
	rb.Report = &core.Report{}
	if err := json.Unmarshal(body, &rb); err != nil {
		return nil, fmt.Errorf("decode cached report: %w", err)
	}
	return rb.Report, nil
}

// writeJSON marshals v as the response body; a value that fails to
// marshal is a 500 envelope instead.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSONBytes(w, b)
}

// writeJSONBytes writes a JSON body and its trailing newline. The two
// Writes matter: b may be a shared cached response, and append(b, '\n')
// would write into its backing array — a data race between concurrent
// hits on the same entry, and a mutation of bytes that must stay
// immutable.
func writeJSONBytes(w http.ResponseWriter, b []byte) {
	w.Header()["Content-Type"] = headerJSONResult
	w.Write(b)
	io.WriteString(w, "\n")
}

// admissionError marks a context failure that struck while the request
// was still waiting for admission (a pool queue slot). httpError maps a
// deadline spent queueing to 503 + Retry-After — the server was too
// loaded to even start, which is the server's overload, not the
// request's slowness (504).
type admissionError struct{ err error }

func (e admissionError) Error() string { return "awaiting admission: " + e.err.Error() }
func (e admissionError) Unwrap() error { return e.err }

func isAdmission(err error) bool {
	var ae admissionError
	return errors.As(err, &ae)
}

// admitter is one request's admission policy, shared by all its cells.
// The first cell that actually needs a pool slot decides via TrySubmit: a
// full queue sheds the whole request (429) instead of parking it, and
// every later cell of the request then fails the same way at once. Once
// admitted, later cells queue with SubmitContext under their context (the
// request's deadline), and a deadline that expires while one waits is an
// admissionError (503). Cache hits and coalesced cells never submit.
type admitter struct {
	pool  *Pool
	first sync.Once
	shed  error // TrySubmit's verdict, set once by the first cell
}

func (a *admitter) admit(ctx context.Context, task func()) error {
	// TrySubmit never blocks, and Once holds later cells until it returns:
	// no later cell submits before the decision is known.
	tried := false
	a.first.Do(func() { tried, a.shed = true, a.pool.TrySubmit(task) })
	if tried || a.shed != nil {
		return a.shed
	}
	err := a.pool.SubmitContext(ctx, task)
	if err != nil && !errors.Is(err, context.Canceled) {
		err = admissionError{err}
	}
	return err
}

// resolveCell obtains one cell's preserialized response — the one
// per-cell path behind every endpoint that simulates: a result-cache
// hit, or a memo flight shared with every concurrent request for the
// same fingerprint. The workload must be normalized, so spelled-out and
// omitted defaults share a slot and the cached report echoes one
// spelling. The caller that starts the flight launches it through its
// request's admitter, so the simulation runs on a pool worker while
// every caller waits on its own goroutine — never on a worker, which
// could deadlock a full pool. The flight runs detached from any one
// request: it is cancelled only when every request waiting for it has
// gone.
func (s *Server) resolveCell(ctx context.Context, label string, wl core.Workload, adm *admitter) (*cached, memo.Outcome, error) {
	key := wl.Fingerprint()
	if val, ok := s.lookup(obs.FromContext(ctx), label, key); ok {
		return val, memo.Hit, nil
	}
	return s.resolveMiss(ctx, label, wl, key, adm)
}

// lookup is resolveCell's hit path: the result-cache lookup by
// fingerprint, spanned as the cell's cache-lookup. It needs no deadline,
// admitter or flight, so a caller builds those only after it misses.
func (s *Server) lookup(tr *obs.Trace, label, key string) (*cached, bool) {
	endLookup := tr.StartSpan(label + "cache-lookup")
	val, ok := s.cache.Get(key)
	endLookup()
	if ok {
		s.attachProfile(tr, label, val.profile)
	}
	return val, ok
}

// resolveMiss is resolveCell's miss path: the memo flight for key, which
// is wl's fingerprint.
func (s *Server) resolveMiss(ctx context.Context, label string, wl core.Workload, key string, adm *admitter) (*cached, memo.Outcome, error) {
	tr := obs.FromContext(ctx)
	waited := time.Now()
	cellWl := wl // captured below; a copy keeps the hit path allocation-free
	val, how, err := s.cache.Do(ctx, key,
		func(run func()) error {
			submitted := time.Now()
			return adm.admit(ctx, func() {
				tr.AddSpan(label+"queue-wait", submitted, time.Now())
				run()
			})
		},
		func(fctx context.Context) (*cached, error) {
			return s.simulateCell(obs.WithTrace(fctx, tr), label, key, cellWl)
		})
	if err != nil {
		return nil, how, err
	}
	// A caller that waited on another caller's flight spans the wait,
	// even if that flight never launched and this caller relaunched it.
	switch how {
	case memo.Coalesced:
		s.coalesced.Add(1)
		s.attachProfile(tr, label, val.profile)
		fallthrough
	case memo.Relaunched:
		tr.AddSpan(label+"coalesce-wait", waited, time.Now())
	}
	return val, how, nil
}

// cellResult is one resolved grid cell.
type cellResult struct {
	val *cached
	how memo.Outcome
}

// overloaded reports an overload signal: a full queue (429) or a
// deadline burnt waiting for admission (503).
func overloaded(err error) bool {
	return err != nil && (errors.Is(err, ErrQueueFull) || isAdmission(err))
}

// runGrid resolves a whole grid through resolveCell, hands each cell's
// preserialized response to emit in grid order, and counts the cache
// hits. It backs /v1/compare, /v1/optimize and the buffered /v1/sweep.
// Their emits collect every cell anyway, so the fan-out needs no window;
// one goroutine per worker and queue slot is enough to keep the pool
// full. All cells share one admitter.
func (s *Server) runGrid(ctx context.Context, n int, cell func(i int) (string, core.Workload), emit func(i int, c *cached) error) (hits int, err error) {
	adm := &admitter{pool: s.pool}
	st := s.pool.Stats()
	err = Each(ctx, n, st.Workers+st.QueueDepth, 0, func(ctx context.Context, i int) (cellResult, error) {
		label, wl := cell(i)
		val, how, err := s.resolveCell(ctx, label, wl.Normalize(), adm)
		if err != nil && n > 1 && !overloaded(err) {
			err = fmt.Errorf("task %d: %w", i, err)
		}
		return cellResult{val, how}, err
	}, func(i int, c cellResult) error {
		if c.how == memo.Hit {
			hits++
		}
		return emit(i, c.val)
	})
	return hits, err
}

// simulateCell is a flight's work: it runs one workload on the current
// (pool-worker) goroutine and serializes it once; the memo stores the
// bytes. The recover mirrors Each's: a panic must fail the flight —
// callers across requests are waiting on it — not strand them, and
// certainly not kill the daemon.
func (s *Server) simulateCell(ctx context.Context, label, key string, w core.Workload) (val *cached, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.pool.recordPanic()
			val, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	tr := obs.FromContext(ctx)
	endSim := tr.StartSpan(label + "simulate")
	rep, err := core.RunContext(ctx, w)
	endSim()
	if err != nil {
		return nil, err
	}
	endEnc := tr.StartSpan(label + "serialize")
	val, err = newCached(rep)
	endEnc()
	if err != nil {
		return nil, err
	}
	// Write-through to the snapshot store: asynchronous and bounded, so
	// the miss path never waits on disk. Traced entries stay memory-only
	// (their profile cannot ride a snapshot).
	if s.cfg.Persist != nil && val.profile == nil {
		s.cfg.Persist.Put(key, val.body)
	}
	s.attachProfile(tr, label, val.profile)
	return val, nil
}

// attachProfile hangs a retained simulator timeline on the request trace
// (no-op for untraced runs, whose cached values carry no profile). The
// attached profile is shared across every request that hits the entry;
// trace rendering only reads it (Merge reads its argument).
func (s *Server) attachProfile(tr *obs.Trace, label string, p *profiler.Profile) {
	if p != nil {
		tr.Attach(label+"profile", p)
	}
}

// handleSimulate serves one workload. The body memo hands it the
// validated, normalized workload and its fingerprint; a result-cache hit
// then needs no deadline, admitter or flight.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request, d *decoded) {
	if d.invalid != nil {
		httpError(w, badRequestError{d.invalid})
		return
	}
	tr := obs.FromContext(r.Context())
	val, ok := s.lookup(tr, "", d.fp)
	how := memo.Hit
	if !ok {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		var err error
		val, how, err = s.resolveMiss(ctx, "", d.wl, d.fp, &admitter{pool: s.pool})
		if err != nil {
			httpError(w, err)
			return
		}
	}
	// The response was serialized exactly once, when the workload was
	// first simulated; a cache hit is one Write of those immutable bytes
	// — zero marshaling, byte-identical by construction.
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	h := w.Header()
	h["X-Cache"] = cacheHeader(how)
	if sim := tr.Dur("simulate"); sim == 0 {
		h["X-Sim-Duration"] = headerNoSim
	} else {
		h["X-Sim-Duration"] = []string{sim.String()}
	}
	writeJSONBytes(w, val.body)
}

// Header values shared by every response that sends them. A handler
// assigns them to canonical keys directly, skipping Header.Set's key
// canonicalization and value allocation; nothing downstream writes into
// a header's value slice, so sharing one is safe.
var (
	headerHit        = []string{"HIT"}
	headerCoalesced  = []string{"COALESCED"}
	headerMiss       = []string{"MISS"}
	headerNoSim      = []string{time.Duration(0).String()}
	headerJSONResult = []string{contentJSON}
)

// cacheHeader renders a cell's memo outcome as the X-Cache header value.
func cacheHeader(how memo.Outcome) []string {
	switch how {
	case memo.Hit:
		return headerHit
	case memo.Coalesced:
		return headerCoalesced
	default:
		return headerMiss
	}
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request, d *decoded) {
	if d.invalid != nil {
		httpError(w, badRequestError{d.invalid})
		return
	}
	tr := obs.FromContext(r.Context())
	wl := d.req.workload()
	methods := []core.Method{core.P2P, core.NCCL}
	cells := make([]core.Workload, len(methods))
	for i, m := range methods {
		cells[i] = wl
		cells[i].Method = m
		if err := cells[i].Validate(); err != nil {
			httpError(w, badRequestError{err})
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// Results are ordered (p2p first, then nccl), mirroring core.Compare.
	// Each arm's report is spliced verbatim out of its cached envelope
	// rather than re-marshaled, so the nested reports stay identical to
	// what /v1/simulate serves.
	body := fmt.Appendf(nil, `{"schemaVersion":%d,"results":[`, SchemaVersion)
	_, err := s.runGrid(ctx, len(cells), func(i int) (string, core.Workload) {
		return string(methods[i]) + " ", cells[i]
	}, func(i int, c *cached) error {
		report, ok := bytes.CutPrefix(c.body, envelopePrefix)
		if !ok {
			return fmt.Errorf("cached response missing envelope prefix %q", envelopePrefix)
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"method":"%s","report":{`, methods[i])
		body = append(body, report...)
		body = append(body, '}')
		return nil
	})
	if err != nil {
		httpError(w, err)
		return
	}
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	w.Header().Set("X-Sim-Duration", tr.Dur("simulate").String())
	writeJSONBytes(w, append(body, "]}"...))
}

// CompareResponse is the /v1/compare body: both methods' reports in
// core.Compare's fixed order (p2p, then nccl).
type CompareResponse struct {
	SchemaVersion int                 `json:"schemaVersion"`
	Results       []core.MethodReport `json:"results"`
}

// SweepRequest describes a configuration grid. Axes left empty inherit
// the base workload's value; the grid expands in models -> hardware ->
// gpus -> batches -> methods -> protocols -> images nesting order, and
// results come back in exactly that order regardless of which
// simulations finish first.
//
// The Images axis varies only the extrapolation phase (how many
// iterations the compiled steady-state window is scaled to), so a grid
// sweeping Images alone compiles exactly one train.Window per distinct
// model/hardware/gpus/batch/method/protocol plan — see internal/core's
// artifact keying.
type SweepRequest struct {
	SchemaVersion int `json:"schemaVersion,omitempty"`
	// Trace opts every grid cell into simulator-stage tracing (see
	// workloadRequest.Trace).
	Trace     bool `json:"trace,omitempty"`
	Base      core.Workload
	Models    []string
	Hardware  []string
	GPUs      []int
	Batches   []int
	Methods   []core.Method
	Protocols []string
	Images    []int64
}

func (sr SweepRequest) version() int           { return sr.SchemaVersion }
func (sr SweepRequest) routed() *core.Workload { return &sr.Base }

// axes returns the effective per-axis values, axes left empty collapsed
// to the base workload's value.
func (sr SweepRequest) axes() (ms, hws []string, gs, bs []int, mets []core.Method, protos []string, imgs []int64) {
	ms = sr.Models
	if len(ms) == 0 {
		ms = []string{sr.Base.Model}
	}
	hws = sr.Hardware
	if len(hws) == 0 {
		hws = []string{sr.Base.Hardware}
	}
	gs = sr.GPUs
	if len(gs) == 0 {
		gs = []int{sr.Base.GPUs}
	}
	bs = sr.Batches
	if len(bs) == 0 {
		bs = []int{sr.Base.Batch}
	}
	mets = sr.Methods
	if len(mets) == 0 {
		mets = []core.Method{sr.Base.Method}
	}
	protos = sr.Protocols
	if len(protos) == 0 {
		protos = []string{sr.Base.Protocol}
	}
	imgs = sr.Images
	if len(imgs) == 0 {
		imgs = []int64{sr.Base.Images}
	}
	return
}

// Size is the grid's cell count (the product of the axis lengths).
func (sr SweepRequest) Size() int {
	ms, hws, gs, bs, mets, protos, imgs := sr.axes()
	return len(ms) * len(hws) * len(gs) * len(bs) * len(mets) * len(protos) * len(imgs)
}

// cell is grid cell i as the sweep resolves it: its span label, carrying
// the grid index so the fan-out attributes back to the one request's
// trace cell by cell, and its workload, traced if the request opted in.
func (sr SweepRequest) cell(i int) (string, core.Workload) {
	wl := sr.Cell(i)
	if sr.Trace {
		wl = withTracing(wl)
	}
	return fmt.Sprintf("cell[%d] ", i), wl
}

// Cell materializes grid cell i (0 <= i < Size()) without materializing
// the rest of the grid — both sweep modes walk cells one at a time, so a
// 10k-cell sweep never holds 10k workloads. Index arithmetic unwinds
// the nesting from the innermost axis (images) outward.
func (sr SweepRequest) Cell(i int) core.Workload {
	ms, hws, gs, bs, mets, protos, imgs := sr.axes()
	w := sr.Base
	w.Images = imgs[i%len(imgs)]
	i /= len(imgs)
	w.Protocol = protos[i%len(protos)]
	i /= len(protos)
	w.Method = mets[i%len(mets)]
	i /= len(mets)
	w.Batch = bs[i%len(bs)]
	i /= len(bs)
	w.GPUs = gs[i%len(gs)]
	i /= len(gs)
	w.Hardware = hws[i%len(hws)]
	i /= len(hws)
	w.Model = ms[i%len(ms)]
	return w
}

// SweepResponse is the buffered /v1/sweep body: the grid results in grid
// order, Count of them. Results are the exact bytes /v1/simulate would
// return for each configuration, so the body is deterministic across
// repeats; cache metadata travels in the X-Cache-Hits header and
// /metrics, not the body.
type SweepResponse struct {
	SchemaVersion int               `json:"schemaVersion"`
	Count         int               `json:"count"`
	Results       []json.RawMessage `json:"results"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, req SweepRequest) {
	tr := obs.FromContext(r.Context())
	size := req.Size()
	if size == 0 {
		httpError(w, badRequestError{fmt.Errorf("empty sweep grid")})
		return
	}
	// Reject the whole grid before simulating any of it. Cell-at-a-time
	// keeps this O(1) memory even for grids the buffered path would never
	// attempt.
	endValidate := tr.StartSpan("validate")
	for i := 0; i < size; i++ {
		if err := req.Cell(i).Validate(); err != nil {
			endValidate()
			httpError(w, badRequestError{fmt.Errorf("config %d: %w", i, err)})
			return
		}
	}
	endValidate()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	if wantsNDJSON(r) {
		s.streamSweep(ctx, w, req, size)
		return
	}
	// Hits are counted from this request's own cell outcomes. (An
	// earlier version diffed the global cache-hit counter around the
	// fan-out, which attributed every concurrent request's hits — and
	// this request's own duplicate-cell coalescing — to whoever read the
	// counter last.)
	// Each cell's record is its cached bytes verbatim, appended in grid
	// order; a fully warm sweep serializes nothing. Count is the grid
	// size, since a sweep either answers every cell or fails.
	body := fmt.Appendf(nil, `{"schemaVersion":%d,"count":%d,"results":[`, SchemaVersion, size)
	hits, err := s.runGrid(ctx, size, req.cell, func(i int, c *cached) error {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, c.body...)
		return nil
	})
	if err != nil {
		httpError(w, err)
		return
	}
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d", hits))
	w.Header().Set("X-Sim-Duration", tr.Dur("simulate").String())
	writeJSONBytes(w, append(body, "]}"...))
}

// ValidateResponse is the /v1/validate body. A semantically invalid
// workload is a successful validation (200, Valid false, Error set) —
// only a malformed request (bad JSON, unknown field, wrong schema
// version) is a 400. Valid workloads echo back normalized (explicit
// Method and Images — what Run would simulate and report) plus the
// fingerprint the result cache would key them under.
type ValidateResponse struct {
	SchemaVersion int            `json:"schemaVersion"`
	Valid         bool           `json:"valid"`
	Error         string         `json:"error,omitempty"`
	Fingerprint   string         `json:"fingerprint,omitempty"`
	Workload      *core.Workload `json:"workload,omitempty"`
}

// handleValidate checks a workload without simulating it, reusing the
// exact core.Workload.Validate the simulate/compare/sweep paths run, so
// a workload this endpoint accepts never fails validation later.
// The fingerprint is the body's routing key: the untraced workload's.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request, d *decoded) {
	resp := ValidateResponse{SchemaVersion: SchemaVersion}
	if d.invalid != nil {
		resp.Error = d.invalid.Error()
	} else {
		n := d.req.Normalize()
		resp.Valid = true
		resp.Fingerprint = d.key
		resp.Workload = &n
	}
	writeJSON(w, resp)
}

// ModelInfo is one zoo entry of the /v1/models listing.
type ModelInfo struct {
	Name             string `json:"name"`
	Depth            int    `json:"depth"`
	ConvLayers       int    `json:"convLayers"`
	InceptionModules int    `json:"inceptionModules"`
	FCLayers         int    `json:"fcLayers"`
	Params           int64  `json:"params"`
	Residual         bool   `json:"residual"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := core.Models()
	infos := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		d, err := models.ByName(n)
		if err != nil {
			httpError(w, err)
			return
		}
		infos = append(infos, ModelInfo{
			Name:             d.Name,
			Depth:            d.Depth,
			ConvLayers:       d.ConvLayers,
			InceptionModules: d.InceptionModules,
			FCLayers:         d.FCLayers,
			Params:           d.Params,
			Residual:         d.Residual,
		})
	}
	writeJSON(w, struct {
		SchemaVersion int         `json:"schemaVersion"`
		Models        []ModelInfo `json:"models"`
	}{SchemaVersion: SchemaVersion, Models: infos})
}

// handleHardware lists the simulatable machines and NCCL protocols — the
// values a workload's hardware and protocol fields accept — so clients
// discover the axis the same way they discover models.
func (s *Server) handleHardware(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		SchemaVersion int                   `json:"schemaVersion"`
		Hardware      []core.HardwareOption `json:"hardware"`
		Protocols     []string              `json:"protocols"`
	}{SchemaVersion: SchemaVersion, Hardware: core.Hardware(), Protocols: core.Protocols()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.ServeHTTP(w, r)
}
