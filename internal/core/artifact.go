// Compile-once, simulate-many: this file is the compiled-workload
// artifact layer. Simulating a workload splits into a compile phase
// (build the model graph, lower the FP/BP kernel plans, run the
// list-scheduled simulation of the setup window and the handful of
// exactly-simulated iterations — all captured as a train.Window) and an
// extrapolation phase (pure arithmetic projecting the window onto the
// epoch). The compile phase is memoized here, keyed by value on the
// workload's plan-relevant fields (compileKey), and shared by Run,
// RunContext, Compare, the experiments sweeps, and the dgxsimd pool
// workers. The simulator is deterministic, so a cached window
// reproduces a cold run byte for byte — both paths finalize through
// train.Window.Extrapolate.
package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/models"
	"repro/internal/train"
	"repro/internal/units"
)

// compiles counts compile phases actually executed (buildWindow calls)
// across the process's lifetime. With the artifact cache doing its job,
// a sweep's compile count equals its number of distinct compile-phase
// plans — the invariant the mega-sweep tests pin and /metrics exposes as
// dgxsimd_compile_windows_total.
var compiles atomic.Uint64

// CompileCount reports how many compile phases (train.Window builds)
// this process has run. It only ever grows; callers diff it around a
// workload batch to count the compiles the batch actually caused.
func CompileCount() uint64 { return compiles.Load() }

// simulated sums the iterations the compiled windows simulated
// (train.Window.Simulated).
var simulated atomic.Uint64

// SimulatedIterations reports how many training iterations the compile
// phases this process has run simulated, across every window. Diffed
// with CompileCount around a batch, it is the iterations a compile
// simulates: a window's cap, or fewer once its state turns periodic.
func SimulatedIterations() uint64 { return simulated.Load() }

// passes sums the device passes the compiled windows launched
// (train.Window.Passes).
var passes atomic.Uint64

// LaunchedPasses reports how many device passes the compile phases this
// process has run launched, across every window. Diffed with
// CompileCount around a batch, it is the passes a compile launches: a
// pass per GPU and simulated iteration, less the data-parallel replicas
// whose pass was replayed.
func LaunchedPasses() uint64 { return passes.Load() }

// buildWindow runs the compile phase: lower the config, build the
// trainer, and simulate the window with the cancellation probe installed.
func buildWindow(w Workload, check func() error) (*train.Window, error) {
	compiles.Add(1)
	cfg, err := trainConfig(w)
	if err != nil {
		return nil, err
	}
	tr, err := train.New(cfg)
	if err != nil {
		return nil, err
	}
	tr.SetCheck(check)
	win, err := tr.SimulateWindow()
	if err == nil {
		simulated.Add(uint64(win.Simulated()))
		passes.Add(uint64(win.Passes()))
	}
	return win, err
}

// compiled is one compiled-window cache value: the window, or the
// deterministic failure compiling it produced (an OOM batch size, say).
// The simulator is deterministic, so such a failure is a property of
// the workload and stays cached like a window; cancellation is a
// property of the departed callers, so it stays a flight error, which
// the memo never stores.
type compiled struct {
	win *train.Window
	err error
}

// windows is the process-wide compiled-window cache. 512 distinct
// configurations comfortably covers the full paper sweep grid many times
// over while bounding a long-lived daemon's footprint.
var windows = memo.New[compileKey, compiled](512)

// ResetCaches drops every memoized artifact: compiled windows, the
// built model zoo (and with its networks their dnn plans
// and the trainers' kernel tables kept beside them), the machine
// topologies, the trainers' machine templates and their plan tables.
// Only benchmarks and tests that measure or exercise the cold path need
// it; servers never call it.
func ResetCaches() {
	windows.Reset()
	models.ResetCache()
	train.ResetCache()
}

// epochImages resolves the epoch's dataset size for a normalized workload.
func epochImages(w Workload) int64 {
	images := w.Images
	if w.WeakScaling {
		images *= int64(w.GPUs)
	}
	return images
}

// compileKey identifies the compiled window a normalized workload maps
// to: the workload's Key with the extrapolation-only fields cleared —
// Images and WeakScaling only scale the epoch arithmetic after the window
// exists — plus the number of iterations the window simulates exactly
// (the one epoch-size dependence the window retains — see
// train.Iterations; core always runs the default cap,
// train.DefaultSimIters). Two workloads with the same key share one
// simulated window and differ only in finalization arithmetic, so every
// cell of a sweep that varies nothing but dataset size shares a compile.
type compileKey struct {
	Key
	n int
}

// artifactKey returns a normalized workload's compileKey.
func artifactKey(w Workload) compileKey {
	_, n := train.Iterations(w.parallelism(), epochImages(w), w.Batch, w.GPUs, train.DefaultSimIters)
	k := w.key()
	k.w.Images, k.w.WeakScaling = 0, false
	return compileKey{k, n}
}

// parallelism is the train-layer strategy the workload selects.
func (w Workload) parallelism() train.Parallelism {
	switch {
	case w.ModelParallel:
		return train.ModelParallel
	case w.HybridOWT:
		return train.HybridOWT
	}
	return train.DataParallel
}

// compiledWindow returns the (possibly cached) compiled window for a
// normalized workload, waiting no longer than the context allows. The
// compile runs on its own goroutine, shared by every concurrent caller of
// the key, and is aborted at its next iteration boundary once all of
// them have left. Cancellation is honoured at every stage boundary —
// before compiling, while waiting on a shared compile flight, between
// simulated iterations (via the trainer's probe), and before the caller
// reads the window — so an abandoned request stops consuming CPU
// promptly instead of simulating its whole epoch first.
func compiledWindow(ctx context.Context, w Workload) (*train.Window, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := artifactKey(w)
	c, ok := windows.Get(key)
	if !ok {
		cw := w // captured below; a copy keeps the hit path allocation-free
		var err error
		c, _, err = windows.Do(ctx, key,
			func(run func()) error { go run(); return nil },
			func(ctx context.Context) (compiled, error) {
				win, err := buildWindow(cw, ctx.Err)
				if errors.Is(err, context.Canceled) {
					return compiled{}, err
				}
				return compiled{win, err}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.win, nil
}

// trainConfig lowers a normalized workload to the train layer's Config.
func trainConfig(w Workload) (train.Config, error) {
	cfg := w.config()
	var err error
	if cfg.Model, err = models.ByName(w.Model); err != nil {
		return train.Config{}, err
	}
	if cfg.NCCL, err = w.nccl(); err != nil {
		return train.Config{}, err
	}
	return cfg, nil
}

// config lowers the workload's fields to a train.Config, all but the
// model and the NCCL selection, which trainConfig resolves. Validate
// checks the schedule rules on it.
func (w Workload) config() train.Config {
	var bucket units.Bytes
	if w.BucketKB > 0 {
		bucket = units.Bytes(w.BucketKB) * units.KB
	}
	return train.Config{
		GPUs:            w.GPUs,
		Batch:           w.Batch,
		Method:          w.Method,
		Images:          epochImages(w),
		TensorCores:     !w.DisableTensorCores,
		Async:           w.Async,
		Parallelism:     w.parallelism(),
		MicroBatches:    w.MicroBatches,
		BucketBytes:     bucket,
		Checkpointing:   w.Checkpointing,
		Winograd:        w.Winograd,
		DetailIntervals: w.TraceIntervals,
		Faults:          w.Faults,
		Hardware:        w.Hardware,
	}
}

// Simulate runs the workload through the artifact layer and returns the
// full train.Result (the Report is a stable summary of it; experiment
// sweeps need the result's extra fields). The workload must be valid; it
// is normalized here.
func Simulate(w Workload) (*train.Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return simulate(w.Normalize())
}

// EpochTime returns the epoch time of the workload, the one number the
// cluster scheduler prices a job by, without building the full
// train.Result (no profile clone or scaling, no busy fractions). It
// validates and normalizes the workload as Simulate does, shares the
// compiled-window cache and its compile flights, and honours
// cancellation as RunContext does. The epoch and any error are
// Simulate's: train.Window.EpochTime shares Extrapolate's checks.
func EpochTime(ctx context.Context, w Workload) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := w.Validate(); err != nil {
		return 0, err
	}
	w = w.Normalize()
	win, err := compiledWindow(ctx, w)
	if err != nil {
		return 0, err
	}
	return win.EpochTime(epochImages(w))
}

// simulate dispatches a normalized workload on the caller's goroutine
// with no cancellation (the Run entry point).
func simulate(w Workload) (*train.Result, error) {
	return simulateCtx(context.Background(), w)
}

// simulateCtx extrapolates a normalized workload from its (possibly
// shared) compiled window.
func simulateCtx(ctx context.Context, w Workload) (*train.Result, error) {
	win, err := compiledWindow(ctx, w)
	if err != nil {
		return nil, err
	}
	return win.Extrapolate(epochImages(w))
}
