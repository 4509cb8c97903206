// Command dgxsimd serves the simulator over HTTP/JSON: one-shot
// simulations, P2P-vs-NCCL comparisons, parallel what-if sweeps over
// configuration grids (buffered or streamed as NDJSON), and a Pareto
// configuration optimizer, backed by a bounded worker pool and a
// deterministic result cache (see internal/service).
//
// Usage:
//
//	dgxsimd -addr :8080 -workers 8 -queue-depth 16 -cache 1024 -timeout 60s -pprof
//
//	curl -s localhost:8080/v1/                    # machine-readable API index
//	curl -s localhost:8080/v1/simulate -d '{"Model":"resnet","GPUs":4,"Batch":32}'
//	curl -s localhost:8080/v1/simulate -d '{"Model":"alexnet","GPUs":8,"Batch":16,"faults":{"failedLinks":[{"a":0,"b":1}]}}'
//	curl -s localhost:8080/v1/sweep -d '{"Models":["lenet","alexnet"],"GPUs":[1,2,4,8],"Batches":[16],"Methods":["p2p","nccl"]}'
//	curl -s -H 'Accept: application/x-ndjson' localhost:8080/v1/sweep \
//	  -d '{"Base":{"Model":"lenet","Batch":16},"GPUs":[1,2,4,8]}'     # one record per cell + summary
//	curl -s localhost:8080/v1/optimize -d '{"base":{"Model":"resnet","Batch":32},"objective":"min_epoch_time"}'
//	curl -s localhost:8080/v1/validate -d '{"Model":"resnet","GPUs":16,"Batch":32}'
//	curl -s localhost:8080/v1/cluster/simulate -d '{"nodes":[{"count":4}],"mix":{"jobs":500},"policy":"frag-aware"}'
//	curl -s localhost:8080/metrics
//
// A sweep requested with Accept: application/x-ndjson streams one JSON
// record per grid cell in grid order (bounded memory — a 10k-cell sweep
// never buffers the grid) and ends with a {"summary": ...} record;
// /v1/optimize searches GPUs x batch x method x faults around a base
// workload and returns the Pareto frontier of the objective
// (min_epoch_time or max_throughput_per_gpu, optional memoryCapGiB)
// against GPU cost. Every error, on every endpoint, is one JSON
// envelope {"error": {"code", "message", "retryable"}} with a stable
// machine-readable code.
//
// /v1/cluster/simulate runs a fleet of simulated DGX-1 nodes (each
// optionally fault-degraded) against a trace of job arrivals in virtual
// time and returns JCT/queueing distributions, utilization, and makespan
// (see internal/cluster); placement policies: first-fit, best-fit,
// frag-aware; queue disciplines: fifo, sjf.
//
// Observability: every response carries an X-Request-ID; a request body
// with "trace": true retains the simulator's stage intervals, and
// GET /v1/trace/{id} replays that request's timeline (service spans +
// FP/BP/WU stages) as a Chrome trace. Each request also emits one JSON
// access-log line on stderr (disable with -access-log=false), and -pprof
// mounts net/http/pprof under /debug/pprof/.
//
// Request and response bodies carry a schemaVersion field (currently 1);
// requests may omit it, and any other value is rejected with 400.
//
// Overload: admission to the worker pool is bounded by -queue-depth.
// When the queue is full a new simulation is shed with 429 + Retry-After
// (a deadline that expires while still queued sheds with 503) instead of
// blocking, identical concurrent misses coalesce onto one in-flight
// simulation, and /metrics exposes dgxsimd_shed_total,
// dgxsimd_coalesced_total, and the admission-queue gauges. cmd/loadgen
// drives a flood to demonstrate the bounded behaviour.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests finish
// (bounded by -drain), then the worker pool is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = NumCPU)")
		queue     = flag.Int("queue-depth", 0, "admission-queue depth before requests are shed with 429 (0 = one slot per worker)")
		cache     = flag.Int("cache", 0, "result-cache capacity in reports (0 = default 1024)")
		cacheDir  = flag.String("cache-dir", "", "persist cached responses to this directory: load on boot, write-through on miss (empty = memory only)")
		timeout   = flag.Duration("timeout", 60*time.Second, "total per-request deadline incl. queueing; expiry while queued sheds with 503")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		traces    = flag.Int("trace-store", 0, "recent request traces retained for /v1/trace (0 = default 256)")
		accessLog = flag.Bool("access-log", true, "emit one JSON access-log line per request on stderr")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	var logSink io.Writer
	if *accessLog {
		logSink = os.Stderr
	}
	var store *persist.Store
	if *cacheDir != "" {
		var err error
		store, err = persist.Open(*cacheDir, service.SchemaVersion, 0)
		if err != nil {
			fatal(err)
		}
		// Close after the server drains: write-through continues until the
		// last in-flight simulation stores its result, and Close flushes
		// the queue so a graceful shutdown loses nothing.
		defer store.Close()
	}
	svc := service.NewServer(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheSize:  *cache,
		Timeout:    *timeout,
		TraceStore: *traces,
		AccessLog:  logSink,
		Persist:    store,
	})
	defer svc.Close()
	if store != nil {
		st := store.Stats()
		log.Printf("dgxsimd: cache snapshots at %s (loaded %d, skipped %d)", store.Dir(), st.Loaded, st.Skipped)
	}

	handler := svc.Handler()
	if *pprofFlag {
		// The profiler endpoints ride on the same listener, mounted
		// explicitly (importing net/http/pprof for its side effect would
		// pollute http.DefaultServeMux, which we do not serve).
		mux := http.NewServeMux()
		mux.Handle("/", svc.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-client hardening: bound header and body reads and reap
		// idle keep-alive connections. Response writes stay unbounded —
		// a sweep may legitimately simulate for the full -timeout before
		// its body goes out (the per-request simulation timeout bounds
		// that work instead). Bodies are additionally capped by the
		// service's MaxBytesReader (413 on overflow).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("dgxsimd: listening on %s (workers=%d)", *addr, svc.PoolStats().Workers)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	log.Printf("dgxsimd: shutting down (draining up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dgxsimd: forced shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgxsimd:", err)
	os.Exit(1)
}
