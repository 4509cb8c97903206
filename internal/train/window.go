package train

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cuda"
	"repro/internal/data"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/memmodel"
	"repro/internal/profiler"
	"repro/internal/topology"
)

// DefaultSimIters is how many iterations the trainer simulates exactly
// before extrapolating the steady state (Config.SimIters defaults to it).
const DefaultSimIters = 4

// Window is the compiled simulation artifact of one synchronous
// data-parallel configuration: everything the steady-state extrapolation
// needs, captured once after the exactly-simulated iterations. Iterations
// are identical in the steady state, so an epoch of any dataset size that
// simulates the same number of window iterations is a pure function of
// the window — Extrapolate reconstructs it without re-running the
// discrete-event simulation, byte-identical to a cold run (both paths
// share the same finalization arithmetic below).
//
// The window depends on the epoch's image count only through nsim (setup
// stages the model and one mini-batch per GPU; iterations move mini-batch
// bytes), which is what makes sharing one window across Images variations
// exact rather than approximate.
//
// A Window is immutable after SimulateWindow returns; Extrapolate only
// reads it (cloning the profile before scaling), so one Window may serve
// many goroutines concurrently — the property the core artifact cache is
// built on.
type Window struct {
	cfg      Config
	memory   memmodel.Estimate
	setupEnd time.Duration
	steady   iterTimes
	simTotal time.Duration
	nsim     int
	// prof is the unscaled profile of the simulated window.
	prof *profiler.Profile
	// utilWeight is the occupancy-weighted kernel seconds of one
	// iteration's plans (the ComputeUtilization numerator per iteration).
	utilWeight  float64
	setupApprox time.Duration
	devs        []topology.NodeID
	busy        map[topology.NodeID]time.Duration
}

// NSim returns how many iterations the window simulated exactly.
func (w *Window) NSim() int { return w.nsim }

// Config returns the configuration the window was compiled from.
func (w *Window) Config() Config { return w.cfg }

// SimulateWindow runs the simulated portion of a synchronous
// data-parallel epoch — session setup, the initial model broadcast, and
// the exactly-simulated iterations — and captures the result as a
// reusable Window. A trainer is single-shot: the engine and resource
// state are consumed, so SimulateWindow (or Run) may be called once.
// Asynchronous, model-parallel, and hybrid schedules have different
// extrapolation structures and do not compile to a Window.
func (t *Trainer) SimulateWindow() (*Window, error) {
	if t.cfg.Parallelism != DataParallel || t.cfg.Async {
		return nil, fmt.Errorf("train: only synchronous data-parallel runs compile to a window")
	}
	if t.ran {
		return nil, fmt.Errorf("train: trainer already ran; build a new one")
	}
	t.ran = true

	// Session setup: framework startup, communicator construction, and the
	// initial model broadcast from the CPU to every GPU over PCIe
	// (Figure 1's leftmost phase).
	now := t.sessionStartup() + t.backend.SetupCost()
	modelBytes := t.cfg.Model.Net.ModelBytes()
	setupEnd := now
	staged := make([]time.Duration, len(t.devs))
	for i, d := range t.devs {
		_, end, err := t.rt.MemcpyHostToDevice(d, modelBytes, profiler.StageOther, now)
		if err != nil {
			return nil, err
		}
		if end > setupEnd {
			setupEnd = end
		}
		// First mini-batch staging overlaps model distribution.
		_, bEnd, err := t.rt.MemcpyHostToDevice(d, t.schedule.BatchBytes(), profiler.StageDataLoad, now)
		if err != nil {
			return nil, err
		}
		staged[i] = bEnd
	}

	nsim := t.cfg.SimIters
	if int64(nsim) > t.schedule.Iterations {
		nsim = int(t.schedule.Iterations)
	}
	start := setupEnd
	var err error
	var it iterTimes
	for i := 0; i < nsim; i++ {
		if err := t.cancelled(); err != nil {
			return nil, err
		}
		it, err = t.runIteration(start, staged)
		if err != nil {
			return nil, err
		}
		start = it.barrier
	}
	steady := it

	busy := make(map[topology.NodeID]time.Duration, len(t.devs))
	for _, d := range t.devs {
		busy[d] = t.rt.Device(d).ComputeBusy()
	}
	// A cached window outlives its trainer; a clone keeps just the
	// aggregates, without the trainer's intern index.
	prof := t.prof.Clone()
	return &Window{
		cfg:         t.cfg,
		memory:      t.memory,
		setupEnd:    setupEnd,
		steady:      steady,
		simTotal:    steady.barrier - setupEnd,
		nsim:        nsim,
		prof:        prof,
		utilWeight:  t.planUtilWeight(),
		setupApprox: t.SetupTimeApprox(),
		devs:        t.devs,
		busy:        busy,
	}, nil
}

// computeUtilization is the occupancy-weighted share of the epoch the SM
// array spends doing useful work (the metric behind the paper's "LeNet has
// a compute utilization of only 18.3%"): each kernel contributes its
// duration weighted by its achieved occupancy, normalized by the epoch.
// The async/model-parallel/hybrid paths call it directly; the synchronous
// data-parallel path folds the same arithmetic into Window.Extrapolate.
func (t *Trainer) computeUtilization(epoch time.Duration) float64 {
	if epoch <= 0 {
		return 0
	}
	return t.planUtilWeight() * float64(t.schedule.Iterations) / epoch.Seconds()
}

// planUtilWeight sums the occupancy-weighted duration of one iteration's
// kernels — the per-iteration numerator of ComputeUtilization.
func (t *Trainer) planUtilWeight() float64 {
	spec := t.rt.Device(t.devs[0]).Spec
	tab := t.tables[0]
	var weighted float64
	add := func(ks []gpu.KernelCost, lowered []cuda.Kernel) {
		for i, k := range ks {
			weighted += lowered[i].Dur.Seconds() * spec.Occupancy(k.Parallelism)
		}
	}
	add(t.fwd, tab.fwd)
	for i, step := range t.bwd {
		add(step.Kernels, tab.bwd[i])
	}
	return weighted
}

// scheduleKey identifies one memoized epoch plan. Every field
// data.NewSchedule consumes joins the key, so a memo hit is exactly the
// schedule a fresh call would return.
type scheduleKey struct {
	images      int64
	shape       dnn.Shape
	batch, gpus int
}

// scheduleMemo caches epoch plans across extrapolations. The warm path
// re-plans the same (images, shape, batch, gpus) tuple on every request
// of a cache-hit-dominated workload; the plan is a pure function of the
// key, so memoizing it is exact. Values are data.Schedule by value —
// nothing shared, nothing to invalidate.
var scheduleMemo sync.Map // scheduleKey -> data.Schedule

// memoSchedule returns the epoch plan for the tuple, planning it at most
// once per process.
func memoSchedule(images int64, shape dnn.Shape, batch, gpus int) (data.Schedule, error) {
	key := scheduleKey{images: images, shape: shape, batch: batch, gpus: gpus}
	if v, ok := scheduleMemo.Load(key); ok {
		return v.(data.Schedule), nil
	}
	sched, err := data.NewSchedule(data.ImageNetSubset(images), shape, batch, gpus)
	if err != nil {
		return data.Schedule{}, err
	}
	scheduleMemo.Store(key, sched)
	return sched, nil
}

// Extrapolate projects the window onto an epoch of the given dataset size
// and returns the full Result, reproducing the cold path's arithmetic
// exactly (cold runs call it too — there is one finalization code path).
// It fails if the epoch would simulate a different number of window
// iterations than the window holds (an epoch smaller than the simulated
// window); the caller then needs a freshly compiled window.
//
// When no profile scaling is needed (the epoch is exactly the simulated
// window), the Result shares the window's own Profile instead of cloning
// it; Results are read-only views in that case, as they always were by
// convention — nothing in the repo mutates a Result's profile.
func (w *Window) Extrapolate(images int64) (*Result, error) {
	sched, err := memoSchedule(images, w.cfg.Model.InputShape, w.cfg.Batch, w.cfg.GPUs)
	if err != nil {
		return nil, err
	}
	nsim := w.cfg.SimIters
	if int64(nsim) > sched.Iterations {
		nsim = int(sched.Iterations)
	}
	if nsim != w.nsim {
		return nil, fmt.Errorf("train: window simulated %d iterations, an epoch of %d images simulates %d",
			w.nsim, images, nsim)
	}
	remaining := sched.Iterations - int64(nsim)
	epoch := w.setupEnd + w.simTotal + time.Duration(remaining)*w.steady.total()

	cfg := w.cfg
	cfg.Images = images
	// Clone only when the epoch actually scales the window's aggregates;
	// otherwise the unscaled shared profile is already the answer.
	prof := w.prof
	if nsim > 0 && sched.Iterations > int64(nsim) {
		prof = w.prof.Clone()
	}
	res := &Result{
		Config:     cfg,
		Iterations: sched.Iterations,
		EpochTime:  epoch,
		SetupTime:  w.setupEnd,
		SteadyIter: w.steady.total(),
		FPWall:     time.Duration(sched.Iterations) * (w.steady.fpEnd - w.steady.start),
		BPWall:     time.Duration(sched.Iterations) * (w.steady.bpEnd - w.steady.fpEnd),
		WUWall:     time.Duration(sched.Iterations) * (w.steady.barrier - w.steady.bpEnd),
		Profile:    prof,
		Memory:     w.memory,
	}
	// Scale profile aggregates from the simulated window to the epoch.
	if nsim > 0 && sched.Iterations > int64(nsim) {
		prof.Scale(float64(sched.Iterations) / float64(nsim))
	}
	if epoch > 0 {
		res.Throughput = float64(sched.Images) / epoch.Seconds()
		res.ComputeUtilization = w.utilWeight * float64(sched.Iterations) / epoch.Seconds()
		// Guarded like ComputeUtilization above: a zero-duration epoch
		// would otherwise divide to NaN, which poisons every JSON encoding
		// of the result (encoding/json rejects NaN).
		res.SyncPercent = 100 * float64(prof.API(cuda.APIStreamSync).Total) /
			(float64(epoch) * float64(w.cfg.GPUs))
	}
	res.GPUComputeBusy = w.busyFractions(epoch)
	return res, nil
}

// busyFractions extrapolates each device's compute-queue busy time from
// the simulated window to the full epoch.
func (w *Window) busyFractions(epoch time.Duration) map[topology.NodeID]float64 {
	out := make(map[topology.NodeID]float64, len(w.devs))
	window := w.simTotal
	if window <= 0 || epoch <= 0 {
		return out
	}
	for _, d := range w.devs {
		// Busy time accumulated over the simulated window scales with the
		// steady-state share of the epoch.
		frac := float64(w.busy[d]) / float64(window)
		if frac > 1 {
			frac = 1
		}
		out[d] = frac * (float64(epoch-w.setupApprox) / float64(epoch))
	}
	return out
}
