package train

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/cuda"
	"repro/internal/memmodel"
	"repro/internal/profiler"
	"repro/internal/topology"
)

// DefaultSimIters caps how many iterations a window simulates exactly.
// A window whose timing state turns periodic stops sooner and completes
// the rest up to the cap in closed form (SimulateWindow), byte for byte
// as if it had simulated them.
const DefaultSimIters = 4

// MaxImages bounds an epoch's dataset size: 2^40, about 10^12 images,
// millions of ImageNets, so an epoch's iteration count never overflows.
const MaxImages int64 = 1 << 40

// ErrEpochTooLarge reports an epoch too large to represent: more than
// MaxImages images, or an epoch whose time, wall-time decomposition or
// profile totals pass half of math.MaxInt64 (about 146 years in
// nanoseconds).
var ErrEpochTooLarge = errors.New("epoch too large")

// Window is the compiled simulation artifact of one training
// configuration, under any schedule: everything the steady-state
// extrapolation needs, captured once after the window's iterations, up
// to its cap (DefaultSimIters) — simulated, or once the state is
// periodic completed in closed form, with the same result.
// Iterations are identical in the steady state, so an epoch
// of any dataset size that simulates the same number of window iterations
// is a pure function of the window — Extrapolate reconstructs it without
// re-running the discrete-event simulation, byte-identical to a cold run
// (both paths share the same finalization arithmetic below).
//
// The window depends on the epoch's image count only through nsim (setup
// stages the model and at most one mini-batch per GPU; iterations move
// mini-batch bytes), which is what makes sharing one window across Images
// variations exact rather than approximate.
//
// A Window is immutable after SimulateWindow returns; Extrapolate only
// reads it (cloning the profile before scaling), so one Window may serve
// many goroutines concurrently — the property the core artifact cache is
// built on.
type Window struct {
	cfg      Config
	memory   memmodel.Estimate
	setupEnd time.Duration
	// last is the window's last iteration; the rest of the epoch repeats
	// its landmarks and its steady iteration time.
	last     iterTimes
	simTotal time.Duration
	// simIters is the cap the window ran with; nsim is its iteration
	// count, the cap bounded by the epoch; simulated is how many of them
	// were simulated before the state turned periodic.
	simIters, nsim, simulated int
	// passes is how many device passes the simulated iterations launched.
	passes int64
	// prof is the unscaled profile of the simulated window, and profMax
	// its largest aggregates (Profile.Largest).
	prof    *profiler.Profile
	profMax profiler.Stat
	// utilWeight is the occupancy-weighted kernel seconds of one
	// iteration's plans (the ComputeUtilization numerator per iteration).
	utilWeight float64
	// setup is the session setup the schedule booked (setupTime), which
	// the busy fractions leave out of the epoch.
	setup time.Duration
	devs  []topology.NodeID
	busy  map[topology.NodeID]time.Duration
}

// Simulated returns how many of the window's iterations were simulated:
// at most its cap, fewer when the timing state turned periodic first.
func (w *Window) Simulated() int { return w.simulated }

// Passes returns how many device passes the window's simulated
// iterations launched: a GPU's forward and backward pass counts once per
// iteration, and a data-parallel replica whose pass was replayed
// (runIteration) does not count. Booked device by device it would be the
// GPU count times Simulated.
func (w *Window) Passes() int64 { return w.passes }

// Iterations returns how many iterations an epoch of images takes under
// parallelism p, and how many of them a window covers exactly: simIters
// (DefaultSimIters) capped by the epoch. That count is the window's
// cap; a window whose state turns periodic simulates fewer and
// completes the rest in closed form (SimulateWindow). An iteration
// consumes one mini-batch of batch images per GPU, except under model
// parallelism, whose pipeline stages share one. The window count is the
// only epoch-size dependence a Window retains, so it joins core's
// artifact key.
func Iterations(p Parallelism, images int64, batch, gpus, simIters int) (epoch int64, window int) {
	per := int64(batch)
	if p != ModelParallel {
		per *= int64(gpus)
	}
	epoch = (images + per - 1) / per
	window = simIters
	if int64(window) > epoch {
		window = int(epoch)
	}
	return epoch, window
}

// iteration simulates one iteration of a schedule beginning at start
// and returns its landmarks.
type iteration func(start time.Duration) (iterTimes, error)

// SimulateWindow runs the simulated portion of an epoch — the schedule's
// session setup and the window's iterations, with the cancellation probe
// consulted before each — and captures the result as a reusable Window.
// Every schedule runs through this one loop; each supplies only its setup
// and its one-iteration body (begin). A trainer is single-shot: the
// engine and resource state are consumed, so SimulateWindow (or Run) may
// be called once.
//
// The loop stops early once the timing state is periodic. Every booking
// is a max/plus of integer-nanosecond times and nothing in an iteration
// draws jitter, so an iteration is a shift-equivariant function of the
// state it starts from. If the state after iteration i equals the state
// after iteration i−1, shifted by λ (the difference of their floors),
// every later iteration repeats iteration i shifted by λ. The window then
// completes the m iterations left to its cap in closed form: the
// landmarks shift by m·λ, the profile and each device's compute busy
// time grow by m times iteration i's growth, and a Detailed profile
// retains iteration i's intervals again, the j-th copy shifted by j·λ.
// Everything the window captures is what simulating to the cap leaves.
func (t *Trainer) SimulateWindow() (*Window, error) {
	if t.ran {
		return nil, fmt.Errorf("train: trainer already ran; build a new one")
	}
	t.ran = true

	setupEnd, iterate, err := t.begin()
	if err != nil {
		return nil, err
	}
	_, nsim := Iterations(t.cfg.Parallelism, t.cfg.Images, t.cfg.Batch, t.cfg.GPUs, t.simIters)
	start := setupEnd
	var it iterTimes
	simulated, left := nsim, int64(0)
	var p *period
	if !t.toCap && nsim > 2 {
		p = periods.Get().(*period)
		defer periods.Put(p)
	}
	for i := 0; i < nsim; i++ {
		if err := t.cancelled(); err != nil {
			return nil, err
		}
		// Only an iteration with another after it, before the cap, can
		// end the window early.
		watch := p != nil && i < nsim-1
		if watch && i > 0 {
			p.mark(t)
		}
		if it, err = iterate(start); err != nil {
			return nil, err
		}
		start = it.barrier
		if !watch || !p.repeats(t, i, it.floor) {
			continue
		}
		simulated, left = i+1, int64(nsim-1-i)
		lambda := it.floor - p.floor
		shift := time.Duration(left) * lambda
		it.start += shift
		it.fpEnd += shift
		it.bpEnd += shift
		it.barrier += shift
		it.floor += shift
		if t.cfg.Async {
			// The slowest worker's mean since setup, as the cap's last
			// iteration computes it.
			it.steady = (it.barrier - setupEnd) / time.Duration(nsim)
		}
		t.prof.Repeat(&p.prof, left, lambda)
		break
	}

	busy := make(map[topology.NodeID]time.Duration, len(t.devs))
	for i, d := range t.devs {
		b := t.rt.Device(d).ComputeBusy()
		if left > 0 {
			b += time.Duration(left) * (b - p.busy[i])
		}
		busy[d] = b
	}
	// A cached window outlives its trainer; it keeps just the names that
	// recorded and their aggregates, not the trainer's seeded slots, so
	// every extrapolation clones only those.
	prof := t.prof.Compact()
	return &Window{
		cfg:        t.cfg,
		memory:     t.memory,
		setupEnd:   setupEnd,
		last:       it,
		simTotal:   it.barrier - setupEnd,
		simIters:   t.simIters,
		nsim:       nsim,
		simulated:  simulated,
		passes:     t.passes,
		prof:       prof,
		profMax:    prof.Largest(),
		utilWeight: t.tables[0].util,
		setup:      t.setupTime(),
		devs:       t.devs,
		busy:       busy,
	}, nil
}

// period is SimulateWindow's stop rule: the timing state after the
// previous iteration, and the profile and busy times before the current
// one.
type period struct {
	// prev is the state after the previous iteration, measured from
	// floor; cur is scratch for the current one.
	prev, cur []time.Duration
	floor     time.Duration
	// busy[i] is devs[i]'s compute busy time before the current
	// iteration, and prof the profile's point then.
	busy []time.Duration
	prof profiler.Mark
	// slab backs prev, cur and busy.
	slab []time.Duration
}

// periods recycles the stop rule's buffers: a compile needs them only
// until its window is captured, and reusing them keeps a compile's
// garbage what it was before the rule.
var periods = sync.Pool{New: func() any { return new(period) }}

// reset sizes the buffers for t's state after its first iteration,
// which creates every resource the later ones book.
func (p *period) reset(t *Trainer) {
	n := t.rt.StateLen() + len(t.carried)
	if need := 2*n + len(t.devs); cap(p.slab) < need {
		p.slab = make([]time.Duration, need)
	}
	p.prev, p.cur, p.busy = p.slab[:0:n], p.slab[n:n:2*n], p.slab[2*n:2*n+len(t.devs)]
}

// mark records the profile and the compute busy times before an
// iteration whose growth the window may repeat.
func (p *period) mark(t *Trainer) {
	t.prof.Mark(&p.prof)
	for i, d := range t.devs {
		p.busy[i] = t.rt.Device(d).ComputeBusy()
	}
}

// repeats captures the state after iteration i, measured from floor
// (iterTimes.floor), and reports whether it equals the state after
// iteration i−1. The state is the runtime's (cuda.Runtime.AppendState)
// and the times the schedule carries (Trainer.carried), each clamped at
// floor: no later booking is ready before floor, and every read of a
// free time or a tail sits under a max with such a readiness, so how far
// below floor a time lies changes nothing.
func (p *period) repeats(t *Trainer, i int, floor time.Duration) bool {
	if i == 0 {
		p.reset(t)
	}
	p.cur = t.rt.AppendState(p.cur[:0], floor)
	for _, c := range t.carried {
		p.cur = append(p.cur, max(c-floor, 0))
	}
	if i > 0 && slices.Equal(p.cur, p.prev) {
		return true
	}
	p.prev, p.cur, p.floor = p.cur, p.prev, floor
	return false
}

// begin builds the configured schedule: it books the schedule's session
// setup and returns when that setup ends, along with the schedule's
// iteration body.
func (t *Trainer) begin() (time.Duration, iteration, error) {
	switch {
	case t.cfg.Parallelism == ModelParallel:
		return t.beginModelParallel()
	case t.cfg.Parallelism == HybridOWT:
		return t.beginHybridOWT()
	case t.cfg.Async:
		return t.beginAsync()
	}
	return t.beginSync()
}

// broadcast books the session setup of the schedules that replicate the
// model: framework startup and, under nccl, the communicator's build,
// then the model's copy from the CPU to every GPU over PCIe (Figure 1's
// leftmost phase), with each GPU's first mini-batch staged alongside it
// when stage is set. It returns when the last model copy lands and,
// indexed like t.devs, when each GPU's first mini-batch arrived, or its
// model when mini-batches are not staged.
func (t *Trainer) broadcast(stage bool) (time.Duration, []time.Duration, error) {
	now := t.setupTime()
	end := now
	ready := make([]time.Duration, len(t.devs))
	modelBytes := t.cfg.Model.Net.ModelBytes()
	for i, d := range t.devs {
		_, arrived, err := t.rt.MemcpyHostToDevice(d, modelBytes, profiler.StageOther, now)
		if err != nil {
			return 0, nil, err
		}
		if arrived > end {
			end = arrived
		}
		ready[i] = arrived
		if !stage {
			continue
		}
		if _, ready[i], err = t.rt.MemcpyHostToDevice(d, t.batchBytes, profiler.StageDataLoad, now); err != nil {
			return 0, nil, err
		}
	}
	return end, ready, nil
}

// Extrapolate projects the window onto an epoch of the given dataset size
// and returns the full Result, reproducing the cold path's arithmetic
// exactly (cold runs call it too — there is one finalization code path).
// It fails as EpochTime does: on an epoch of no images or too many, if the
// epoch would simulate a different number of window iterations than the
// window holds (an epoch smaller than the simulated window; the caller
// then needs a freshly compiled window), and if the epoch overflows.
//
// When no profile scaling is needed (the epoch is exactly the simulated
// window), the Result shares the window's own Profile instead of cloning
// it; Results are read-only views in that case, as they always were by
// convention — nothing in the repo mutates a Result's profile.
func (w *Window) Extrapolate(images int64) (*Result, error) {
	iters, epoch, err := w.epoch(images)
	if err != nil {
		return nil, err
	}
	nsim := w.nsim
	cfg := w.cfg
	cfg.Images = images
	// Clone only when the epoch actually scales the window's aggregates;
	// otherwise the unscaled shared profile is already the answer.
	prof := w.prof
	if nsim > 0 && iters > int64(nsim) {
		prof = w.prof.Clone()
	}
	res := &Result{
		Config:     cfg,
		Iterations: iters,
		EpochTime:  epoch,
		SetupTime:  w.setupEnd,
		SteadyIter: w.last.steady,
		FPWall:     time.Duration(iters) * (w.last.fpEnd - w.last.start),
		BPWall:     time.Duration(iters) * (w.last.bpEnd - w.last.fpEnd),
		WUWall:     time.Duration(iters) * (w.last.barrier - w.last.bpEnd),
		Profile:    prof,
		Memory:     w.memory,
	}
	// Scale profile aggregates from the simulated window to the epoch.
	if nsim > 0 && iters > int64(nsim) {
		prof.Scale(float64(iters) / float64(nsim))
	}
	if epoch > 0 {
		res.Throughput = float64(images) / epoch.Seconds()
		// The numerator counts data-parallel iterations (one mini-batch
		// per GPU) under every schedule.
		dpIters, _ := Iterations(DataParallel, images, w.cfg.Batch, w.cfg.GPUs, w.simIters)
		res.ComputeUtilization = w.utilWeight * float64(dpIters) / epoch.Seconds()
		if w.cfg.Parallelism == ModelParallel {
			// A known defect, kept so outputs stay put: that numerator is
			// already per GPU, and this divides by the GPU count again.
			res.ComputeUtilization /= float64(w.cfg.GPUs)
		}
		// Guarded like ComputeUtilization above: a zero-duration epoch
		// would otherwise divide to NaN, which poisons every JSON encoding
		// of the result (encoding/json rejects NaN).
		res.SyncPercent = 100 * float64(prof.API(cuda.APIStreamSync).Total) /
			(float64(epoch) * float64(w.cfg.GPUs))
	}
	res.GPUComputeBusy = w.busyFractions(epoch)
	return res, nil
}

// EpochTime returns the epoch time Extrapolate(images) reports, or its
// error, without building the Result: no profile clone or scaling and no
// busy fractions. Callers that need only the epoch — the fleet
// simulator pricing a job — read it here.
func (w *Window) EpochTime(images int64) (time.Duration, error) {
	_, epoch, err := w.epoch(images)
	return epoch, err
}

// epoch checks an epoch of images against the window and returns its
// iteration count and its time: the one place EpochTime and Extrapolate
// compute them, so the two cannot drift.
func (w *Window) epoch(images int64) (iters int64, epoch time.Duration, err error) {
	if images <= 0 {
		return 0, 0, fmt.Errorf("train: an epoch needs images, got %d", images)
	}
	if images > MaxImages {
		return 0, 0, fmt.Errorf("train: %w: %d images, at most %d", ErrEpochTooLarge, images, MaxImages)
	}
	iters, nsim := Iterations(w.cfg.Parallelism, images, w.cfg.Batch, w.cfg.GPUs, w.simIters)
	if nsim != w.nsim {
		return 0, 0, fmt.Errorf("train: window simulated %d iterations, an epoch of %d images simulates %d",
			w.nsim, images, nsim)
	}
	remaining := iters - int64(nsim)
	if w.overflows(iters, remaining) {
		return 0, 0, fmt.Errorf("train: %w: %d iterations of %v", ErrEpochTooLarge, iters, w.last.steady)
	}
	return iters, w.setupEnd + w.simTotal + time.Duration(remaining)*w.last.steady, nil
}

// overflows reports whether extrapolating the window to iters
// iterations, remaining of them past the window, takes the epoch, its
// wall-time decomposition or a scaled profile aggregate past half of
// math.MaxInt64. The margin covers float64 rounding and the sums reports
// form of these values. It computes in float64, which cannot overflow.
func (w *Window) overflows(iters, remaining int64) bool {
	const limit = float64(math.MaxInt64 / 2)
	it := w.last
	walls := math.Abs(float64(it.fpEnd-it.start)) + math.Abs(float64(it.bpEnd-it.fpEnd)) + math.Abs(float64(it.barrier-it.bpEnd))
	scale := float64(iters) / float64(max(w.nsim, 1))
	return float64(w.setupEnd+w.simTotal)+float64(remaining)*float64(it.steady) > limit ||
		float64(iters)*walls > limit ||
		scale*float64(w.profMax.Total) > limit || scale*float64(w.profMax.Calls) > limit
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
		out[d] = frac * (float64(epoch-w.setup) / float64(epoch))
	}
	return out
}
