// Package experiments reproduces every table and figure of the paper's
// evaluation: each experiment programmatically sweeps the configurations
// the paper measured and renders the same rows/series the paper reports.
// The per-experiment index lives in DESIGN.md; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// Options tunes an experiment run.
type Options struct {
	// Repetitions per configuration (the paper uses 5). The first
	// repetition is the exact simulated value; the rest add seeded
	// run-to-run jitter.
	Repetitions int
	// Seed drives the jitter source.
	Seed int64
	// JitterRel is the relative standard deviation of run-to-run noise.
	JitterRel float64
	// Images overrides the strong-scaling dataset size (0 = the paper's
	// 256K). Benchmarks use a smaller value where only shape matters.
	Images int64
	// Workers bounds how many configurations a sweep runs at once (0 =
	// NumCPU, 1 = sequential). Results are collected by configuration
	// index, so every worker count renders byte-identical tables.
	Workers int
}

func (o *Options) normalize() {
	if o.Repetitions <= 0 {
		o.Repetitions = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.JitterRel == 0 {
		o.JitterRel = 0.015
	}
	if o.Images <= 0 {
		o.Images = train.PaperDatasetImages
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the paper artifact identifier, e.g. "fig3" or "table2".
	ID string
	// Title describes the artifact.
	Title string
	// Desc is the one-line summary `experiments -list` prints under the
	// title: what the run sweeps and what its tables show.
	Desc string
	// Run executes the sweep and renders its tables.
	Run func(Options) ([]*report.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: description of the networks",
			Desc: "static model census: layers, parameter bytes, and per-image FLOPs for the five networks",
			Run:  Table1},
		{ID: "fig1", Title: "Figure 1: multi-GPU training timeline (one epoch start)",
			Desc: "one epoch's FP/BP/WU lanes per GPU, showing the synchronized start the paper traces",
			Run:  Fig1},
		{ID: "fig2", Title: "Figure 2: DGX-1 network topology",
			Desc: "the 8-GPU NVLink hybrid cube-mesh: link table, hop counts, and bisection bandwidth",
			Run:  Fig2},
		{ID: "fig3", Title: "Figure 3: training time per epoch, P2P vs NCCL",
			Desc: "epoch-time sweep over model x GPUs x batch for both update methods",
			Run:  Fig3},
		{ID: "table2", Title: "Table II: NCCL overhead vs P2P on a single GPU",
			Desc: "single-GPU penalty of routing updates through NCCL when no transfer is needed",
			Run:  Table2},
		{ID: "fig4", Title: "Figure 4: training time breakdown into FP+BP and WU",
			Desc: "where the epoch goes: compute vs exposed weight update, per model and GPU count",
			Run:  Fig4},
		{ID: "table3", Title: "Table III: cudaStreamSynchronize overhead for LeNet",
			Desc: "sync-call share of small-model epochs, the paper's LeNet bottleneck diagnosis",
			Run:  Table3},
		{ID: "table4", Title: "Table IV: memory usage, pre-training and training",
			Desc: "per-GPU memory footprint before and during training across the sweep",
			Run:  Table4},
		{ID: "fig5", Title: "Figure 5: weak scaling",
			Desc: "fixed per-GPU batch scaling, where communication growth erodes the ideal slope",
			Run:  Fig5},
		{ID: "insights", Title: "Conformance: the paper's stated insights, re-checked",
			Desc: "each prose claim in the paper re-evaluated against the simulator, pass/fail",
			Run:  Insights},
		{ID: "optimizations", Title: "Extension: post-paper remedies (bucketing, tree algorithm)",
			Desc: "gradient bucketing and tree reductions applied to the paper's worst cases",
			Run:  Optimizations},
		{ID: "layers", Title: "Extension: layer-by-layer roofline characterization",
			Desc: "per-layer arithmetic intensity and roofline placement for every network",
			Run:  Layers},
		{ID: "hardware", Title: "Extension: hardware generations and transport baselines",
			Desc: "the same sweep on Pascal, PCIe-only, and NVSwitch machines plus a CPU parameter server",
			Run:  Hardware},
		{ID: "crossover", Title: "Extension: P2P-vs-NCCL crossover across hardware generations",
			Desc: "the paper's method comparison re-run on the DGX-2's NVSwitch crossbar, plus the NCCL protocol ladder",
			Run:  Crossover},
		{ID: "resilience", Title: "Extension: training under injected fabric faults",
			Desc: "severity ladder of link failures, stragglers, and PCIe contention on one node's epoch",
			Run:  Resilience},
		{ID: "fleet", Title: "Extension: multi-tenant fleet scheduling over simulated DGX-1s",
			Desc: "placement policy x fleet size x fault severity over a PAI-style job trace; JCT tails and queue discipline",
			Run:  Fleet},
		{ID: "optimize", Title: "Extension: Pareto frontier of configuration vs GPU cost",
			Desc: "resnet searched over GPUs x batch x method: the non-dominated epoch-time and throughput/GPU frontiers under the 16 GiB cap",
			Run:  Optimize},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// Paper sweep axes.
var (
	// ModelNames in the paper's presentation order.
	ModelNames = []string{"lenet", "alexnet", "resnet", "googlenet", "inception-v3"}
	// Batches the paper sweeps.
	Batches = []int{16, 32, 64}
	// GPUCounts the paper sweeps.
	GPUCounts = []int{1, 2, 4, 8}
	// Methods the paper compares.
	Methods = []train.Method{train.MethodP2P, train.MethodNCCL}
)

// parMap fans an n-configuration sweep out on opt.Workers goroutines
// through the ordered fan-out behind cmd/dgxsimd's grids and returns the
// results in index order. Completion order never leaks into the output,
// so the parallel sweep renders byte-identically to a sequential one —
// determinism_test.go and parallel_test.go hold it to that.
func parMap[T any](opt Options, n int, fn func(i int) (T, error)) ([]T, error) {
	k := opt.Workers
	if k <= 0 {
		k = runtime.NumCPU()
	}
	out := make([]T, n)
	err := service.Each(context.Background(), n, k, 0, func(_ context.Context, i int) (T, error) {
		v, err := fn(i)
		if err != nil {
			err = fmt.Errorf("task %d: %w", i, err)
		}
		return v, err
	}, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runOne simulates a single configuration through the core artifact
// layer, so a sweep revisiting a configuration (or only varying the
// dataset size) reuses its compiled window instead of re-simulating it.
func runOne(model string, gpus, batch int, method train.Method, images int64) (*train.Result, error) {
	return core.Simulate(core.Workload{Model: model, GPUs: gpus, Batch: batch, Method: method, Images: images})
}

// measured is one configuration's repeated-run summary.
type measured struct {
	res    *train.Result
	sample stats.Sample
}

// measure runs a configuration and expands it to the repeated-run summary
// the paper's error bars come from, scaling the exact epoch by the
// configuration's jitter factors (jitterFactors).
func measure(model string, gpus, batch int, method train.Method, images int64, factors []float64) (measured, error) {
	res, err := runOne(model, gpus, batch, method, images)
	if err != nil {
		return measured{}, err
	}
	reps := stats.Repetitions(res.EpochTime, factors)
	return measured{res: res, sample: stats.Summarize(reps)}, nil
}

// jitterKey is the part of a configuration its jitter seed depends on.
type jitterKey struct{ gpus, batch int }

// jitterFactors draws, per GPU count and batch, the Repetitions-1
// factors a configuration's jittered repetitions apply, from the stream
// seeded opt.Seed^(gpus*1000+batch). Every model and method measured at
// one GPU count and batch shares that stream, so a run seeds each once
// (Figure 3: 12 streams for 120 configurations) instead of building a
// math/rand state per configuration.
func jitterFactors(opt Options, gpus, batches []int) map[jitterKey][]float64 {
	out := make(map[jitterKey][]float64, len(gpus)*len(batches))
	for _, g := range gpus {
		for _, b := range batches {
			j := sim.NewJitter(opt.Seed^int64(g*1000+b), opt.JitterRel)
			f := make([]float64, opt.Repetitions-1)
			for i := range f {
				f[i] = j.Factor()
			}
			out[jitterKey{g, b}] = f
		}
	}
	return out
}

// fmtDur renders a duration rounded for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(100 * time.Millisecond).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(100 * time.Microsecond).String()
	}
}
