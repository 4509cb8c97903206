// Package core is the library's top-level API: describe a DNN training
// workload, run it on the simulated Volta DGX-1, and read back the
// measurements the paper reports — epoch time, FP+BP/WU breakdown, memory
// usage, CUDA-API overheads, and method comparisons.
//
// It is a thin, stable facade over the simulation stack (train, nccl,
// p2p, cuda, gpu, interconnect, topology, sim); programs needing finer
// control use those packages directly.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/dnn"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/train"
)

// Method names a communication method.
type Method = train.Method

// Communication methods.
const (
	P2P  = train.MethodP2P
	NCCL = train.MethodNCCL
)

// Workload describes one training configuration.
type Workload struct {
	// Model is a zoo name: lenet, alexnet, googlenet, inception-v3, resnet.
	Model string
	// GPUs is the device count (1..8).
	GPUs int
	// Batch is the per-GPU mini-batch size.
	Batch int
	// Method is the communication method: p2p, nccl (the default) or
	// local.
	Method Method
	// Images per epoch (default: the paper's 256K).
	Images int64
	// WeakScaling grows the dataset by the GPU count.
	WeakScaling bool
	// TensorCores toggles the tensor-core lowering (default on via Run).
	DisableTensorCores bool
	// Async switches to asynchronous SGD. Async, ModelParallel and
	// HybridOWT select a schedule other than synchronous data
	// parallelism; the capability table (internal/train/schedule.go)
	// lists the methods, GPU counts and options each schedule accepts.
	Async bool
	// ModelParallel partitions layers across GPUs (pipelined with
	// micro-batches) instead of replicating the model.
	ModelParallel bool
	// HybridOWT data-parallelizes the conv body and tensor-parallelizes
	// the FC head ("one weird trick").
	HybridOWT bool
	// MicroBatches tunes the model-parallel pipeline depth (default 2x
	// the stage count, capped at Batch/4 and at least 1).
	MicroBatches int
	// NCCLTree uses NCCL's double-binary-tree algorithm instead of rings.
	NCCLTree bool
	// BucketKB fuses gradient arrays into buckets of at least this many
	// KiB before exchange (0 = per-array, the paper-era behaviour).
	BucketKB int
	// Checkpointing trades one extra forward pass for sqrt-N activation
	// memory (unlocks batch sizes past the paper's OOM wall).
	Checkpointing bool
	// Winograd lowers eligible 3x3 convolutions via the Winograd
	// transform.
	Winograd bool
	// TraceIntervals retains up to this many profiler intervals for
	// timeline export.
	TraceIntervals int
	// Faults injects a degraded-fabric plan — failed NVLink bricks,
	// per-link bandwidth degradation, straggler GPUs, PCIe contention —
	// into the simulated DGX-1 (see internal/faults). Nil is the healthy
	// machine. The plan is part of the workload's identity: it joins the
	// Fingerprint, so faulted runs never alias healthy ones in any cache.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Hardware names the machine to simulate: "dgx1" (default, the
	// paper's system), "dgx1-pascal", "dgx2", "dgx-a100", or "dgx-h100".
	// It resolves to a (topology, GPU spec) pair and joins the
	// Fingerprint, so runs on different machines never share cache slots.
	// Fault plans name DGX-1 bricks, so Faults requires dgx1 hardware.
	Hardware string
	// Protocol selects the NCCL transfer protocol: "simple" (default, the
	// paper-era behavior), "ll", "ll128", or "auto" (NCCL's tuner: picks
	// protocol and ring-vs-tree algorithm per collective by message size
	// and fabric). Only the nccl method reads it. "auto" conflicts with
	// NCCLTree, which pins the algorithm.
	Protocol string
}

// Report is the outcome of one simulated epoch. It marshals to JSON for
// external analysis (durations in nanoseconds; the profile is omitted —
// export timelines with Profile.ExportChromeTrace).
type Report struct {
	Workload   Workload `json:"workload"`
	Iterations int64    `json:"iterations"`

	EpochTime  time.Duration `json:"epochTimeNs"`
	SteadyIter time.Duration `json:"steadyIterNs"`
	Throughput float64       `json:"imagesPerSecond"`

	// Stage breakdown (per epoch).
	FPBP time.Duration `json:"fpbpNs"`
	WU   time.Duration `json:"wuNs"`

	// Memory per GPU.
	Memory memmodel.Estimate `json:"memory"`

	// CUDA-API view.
	SyncPercent        float64 `json:"syncPercent"`
	ComputeUtilization float64 `json:"computeUtilization"`

	// Profile gives full access to kernel/API/transfer accounting.
	Profile *profiler.Profile `json:"-"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Run simulates one epoch of the workload. The first run of a
// configuration compiles it — builds the model graph and kernel plans and
// simulates the steady-state window — and memoizes the compiled artifact;
// repeat runs (any entry point, any Images value sharing the window)
// reuse it and only redo the extrapolation arithmetic, producing
// byte-identical reports. The echoed Report.Workload is normalized
// (explicit Method and Images).
func Run(w Workload) (*Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w = w.Normalize()
	res, err := simulate(w)
	if err != nil {
		return nil, err
	}
	return newReport(w, res), nil
}

// newReport summarizes a train.Result as the stable Report — the one
// finalization every entry point (Run, RunContext, Compare) shares.
func newReport(w Workload, res *train.Result) *Report {
	return &Report{
		Workload:           w,
		Iterations:         res.Iterations,
		EpochTime:          res.EpochTime,
		SteadyIter:         res.SteadyIter,
		Throughput:         res.Throughput,
		FPBP:               res.FPBPWall(),
		WU:                 res.WUWall,
		Memory:             res.Memory,
		SyncPercent:        res.SyncPercent,
		ComputeUtilization: res.ComputeUtilization,
		Profile:            res.Profile,
	}
}

// RunContext simulates one epoch of the workload, honouring cancellation
// and deadlines. Cancellation is cooperative but real: the context is
// checked between pipeline stages and between simulated iterations, so
// an abandoned request's simulation aborts within an iteration boundary
// instead of finishing its epoch in the background. A compile shared
// with other in-flight callers (the artifact cache's singleflight) keeps
// running as long as any caller still wants it; when the last one
// cancels, the compile is aborted too — and a cancelled compile is never
// cached, so the next request simulates afresh.
//
// When the context carries a request trace (internal/obs), the run
// records a "core.Run <model>" span into it, so service-layer timelines
// attribute the simulation to its workload without the caller doing
// anything.
func RunContext(ctx context.Context, w Workload) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer obs.FromContext(ctx).StartSpan("core.Run " + w.Model)()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w = w.Normalize()
	res, err := simulateCtx(ctx, w)
	if err != nil {
		return nil, err
	}
	return newReport(w, res), nil
}

// MethodReport pairs one communication method with its report, in
// Compare's fixed order.
type MethodReport struct {
	Method Method  `json:"method"`
	Report *Report `json:"report"`
}

// Compare runs the workload under both communication methods and returns
// the reports in a fixed order: P2P first, then NCCL. (An earlier version
// returned a map, whose iteration order leaked nondeterminism into JSON
// encodings and ranges over the result.)
func Compare(w Workload) ([]MethodReport, error) {
	out := make([]MethodReport, 0, 2)
	for _, m := range []Method{P2P, NCCL} {
		wm := w
		wm.Method = m
		r, err := Run(wm)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", m, err)
		}
		out = append(out, MethodReport{Method: m, Report: r})
	}
	return out, nil
}

// Models lists the available model names.
func Models() []string { return models.Names() }

// Describe returns the zoo description of a model.
func Describe(model string) (models.Description, error) {
	return models.ByName(model)
}

// LayerProfile returns the analytical per-layer FP/BP characterization of
// a model at a batch size on the default V100 (the layer-by-layer view of
// the profiling work the paper cites). The returned slice is the
// caller's to sort or modify.
func LayerProfile(model string, batch int) ([]dnn.LayerStat, error) {
	d, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	return dnn.ProfileLayers(d.Net, batch, gpu.V100(), dnn.PlanOptions{TensorCores: true}), nil
}

// EstimateMemory returns the per-GPU memory estimate without running a
// simulation (multiGPU selects the parameter-server premium on GPU 0).
func EstimateMemory(model string, batch int, multiGPU bool) (memmodel.Estimate, error) {
	d, err := models.ByName(model)
	if err != nil {
		return memmodel.Estimate{}, err
	}
	return memmodel.Compute(d.Net, batch, multiGPU), nil
}

// Summary renders a one-paragraph textual summary of a report.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"%s on %d GPU(s), batch %d/GPU, %s: epoch %v (%d iterations, %.0f img/s); "+
			"FP+BP %v, exposed WU %v; GPU0 memory %.2f GiB; sync %.1f%%, utilization %.1f%%",
		r.Workload.Model, r.Workload.GPUs, r.Workload.Batch, r.Workload.Method,
		r.EpochTime.Round(time.Millisecond), r.Iterations, r.Throughput,
		r.FPBP.Round(time.Millisecond), r.WU.Round(time.Millisecond),
		r.Memory.Root().GiB(), r.SyncPercent, 100*r.ComputeUtilization)
}
