package train

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/kvstore"
	"repro/internal/profiler"
	"repro/internal/units"
)

// iterTimes captures one simulated iteration's landmark times.
type iterTimes struct {
	start   time.Duration
	fpEnd   time.Duration
	bpEnd   time.Duration
	barrier time.Duration
	// steady is the iteration time the rest of the epoch repeats: the
	// iteration's span when a barrier ends it, or, under ASGD, the
	// slowest worker's mean over the iterations so far.
	steady time.Duration
	// floor is the earliest time any later booking can be ready: the
	// barrier, or under ASGD the earliest worker clock. The window's stop
	// rule measures the timing state from it.
	floor time.Duration
}

// sgdUpdateCost is the root GPU's weight-update kernel for one parameter
// array: w -= lr * (grad + momentum bookkeeping) — a bandwidth-bound axpy
// over the array.
func sgdUpdateCost(size units.Bytes) gpu.KernelCost {
	elems := int64(size / units.Float32Size)
	return gpu.KernelCost{
		Name:        sgdUpdate,
		FLOPs:       units.FLOPs(4 * elems),
		MemBytes:    5 * size,
		Parallelism: elems,
		Class:       gpu.ClassMemory,
	}
}

// bookUpdate runs the optimizer kernel k (from updates or updateKernel)
// for one parameter array on the root GPU. With the multi-GPU P2P (device)
// kvstore the update is an ordinary kernel on the root's compute queue —
// it lands behind whatever backpropagation work is already enqueued
// there, which is part of why GPU 0 bottlenecks that method. The NCCL
// kvstore runs its updater on the kvstore's dedicated stream, so there it
// goes to the communication queue and pipelines with the collectives. On
// a single GPU there is no aggregation role and both methods place the
// update identically (the updater stream), leaving NCCL's collective
// kernels as the only difference — the overhead the paper's Table II
// isolates.
func (t *Trainer) bookUpdate(ready time.Duration, k cuda.Kernel) time.Duration {
	comm := t.backend.Name() == kvstore.MethodNCCL || t.cfg.GPUs == 1
	_, end := t.rt.BookKernel(t.backend.Root(), comm, profiler.StageWU, k, ready)
	return end
}

// sessionStartup is the per-session framework fixed cost paid inside the
// first measured epoch: stream/context creation and cuDNN convolution
// autotuning (one probe per convolution layer). Amortizing it over the
// larger weak-scaling dataset is what gives the small networks their
// weak-over-strong advantage in the paper's Figure 5.
func (t *Trainer) sessionStartup() time.Duration {
	const (
		base    = 25 * time.Millisecond
		perConv = 8 * time.Millisecond
	)
	return base + time.Duration(t.cfg.Model.ConvLayers)*perConv
}

// Run simulates one training epoch and returns its measurements: the
// window SimulateWindow compiles, extrapolated to the configured epoch —
// the same path a warm artifact-cache hit takes, so cold and cached runs
// share one finalization code path (and therefore produce byte-identical
// results).
func (t *Trainer) Run() (*Result, error) {
	win, err := t.SimulateWindow()
	if err != nil {
		return nil, err
	}
	return win.Extrapolate(t.cfg.Images)
}

// SetupTimeApprox exposes the setup window used by busy-fraction scaling.
func (t *Trainer) SetupTimeApprox() time.Duration {
	return t.sessionStartup() + t.backend.SetupCost()
}

// beginSync builds the synchronous data-parallel schedule: its setup
// stages the model and each GPU's first mini-batch, and its iterations
// are runIteration.
func (t *Trainer) beginSync() (time.Duration, iteration, error) {
	end, staged, err := t.broadcast(true)
	if err != nil {
		return 0, nil, err
	}
	t.carried = staged
	return end, func(start time.Duration) (iterTimes, error) { return t.runIteration(start, staged) }, nil
}

// runIteration simulates one synchronous iteration beginning at iterStart
// with each GPU's input batch staged at staged[i] (indexed like t.devs).
// It returns the iteration landmarks and overwrites staged with the next
// iteration's staging times.
//
// Every GPU runs the same pass, so the devices whose kernel table and
// pass entry (cuda.Stream.Entry) are equal book it alike: the first of
// each such group launches it, and the others replay its bookings in
// closed form (cuda.Stream.Replay), the profile repeating its aggregates
// once per replica. A replica's gradient-ready times and landmarks equal
// its source's, so grads and the landmarks need nothing from it. A
// straggler has its own table, so it forms its own group; a Detailed
// profile books device by device, because its intervals carry each
// device's tracks.
func (t *Trainer) runIteration(iterStart time.Duration, staged []time.Duration) (iterTimes, error) {
	it := iterTimes{start: iterStart}

	// Per-layer gradient scratch, reused across iterations.
	grads := t.grads[:0]

	rep := t.replicas()
	if rep != nil {
		defer replicaPool.Put(rep)
	}
	for i := range t.devs {
		s, tab := &t.compute[i], t.tables[i]
		var reps int64
		if rep != nil {
			if src := rep.src[i]; src >= 0 {
				s.Replay(&t.compute[src], &rep.marks[src])
				continue
			}
			if reps = rep.group(t, i, iterStart, staged); reps > 0 {
				s.Mark(&rep.marks[i])
				t.prof.Mark(&rep.prof)
			}
		}
		t.passes++
		s.WaitEvent(staged[i])
		host, kEnd := s.LaunchRun(profiler.StageFP, tab.fwdRun(), iterStart)
		if kEnd > it.fpEnd {
			it.fpEnd = kEnd
		}
		// Gradient checkpointing re-executes the forward kernels between
		// checkpoints while backpropagating — approximately one extra
		// forward pass folded into BP.
		if t.cfg.Checkpointing {
			host, _ = s.LaunchRun(profiler.StageBP, tab.recomputeRun(), host)
		}
		host, grads, it.bpEnd = launchBackward(s, tab.bwdRuns(), host, i == 0, grads, it.bpEnd)
		// Iteration-end sync on the compute stream.
		s.Synchronize(profiler.StageBP, host)
		if reps > 0 {
			t.prof.Repeat(&rep.prof, reps, 0)
		}
	}

	// Weight update: push -> root update -> pull, pipelined in
	// gradient-availability (reverse layer) order. With bucketing enabled,
	// consecutive arrays are fused until the bucket reaches the threshold,
	// amortizing per-operation overheads at the cost of waiting for the
	// bucket's slowest member.
	lastPull := it.bpEnd
	exchange := func(a *kvstore.Array, ready time.Duration, upd cuda.Kernel) error {
		pullEnd, err := t.exchange(a, ready, upd)
		if pullEnd > lastPull {
			lastPull = pullEnd
		}
		return err
	}
	var bucket layerGrad
	for j, g := range grads {
		if t.cfg.BucketBytes <= 0 {
			if err := exchange(t.array(j), g.ready, t.update(j)); err != nil {
				return it, err
			}
			continue
		}
		bucket.bytes += g.bytes
		if g.ready > bucket.ready {
			bucket.ready = g.ready
		}
		if bucket.bytes >= t.cfg.BucketBytes {
			if err := exchange(t.bucket(bucket.bytes), bucket.ready, t.updateKernel(bucket.bytes)); err != nil {
				return it, err
			}
			bucket = layerGrad{}
		}
	}
	if bucket.bytes > 0 {
		if err := exchange(t.bucket(bucket.bytes), bucket.ready, t.updateKernel(bucket.bytes)); err != nil {
			return it, err
		}
	}

	// Prefetch next iteration's batches (overlapped with compute).
	for i, d := range t.devs {
		_, end, err := t.rt.MemcpyHostToDevice(d, t.schedule.BatchBytes(), profiler.StageDataLoad, iterStart)
		if err != nil {
			return it, err
		}
		staged[i] = end
	}

	// Each GPU's host blocks until every weight array is pulled; the
	// synchronous barrier is the slowest of those waits.
	barrier := lastPull
	for _, d := range t.devs {
		w := t.rt.HostWait(d, profiler.StageWU, it.bpEnd, lastPull)
		if w > barrier {
			barrier = w
		}
	}
	it.barrier, it.floor = barrier, barrier
	it.steady = barrier - iterStart
	t.grads = grads
	if it.fpEnd < iterStart || it.bpEnd < it.fpEnd || it.barrier < it.bpEnd {
		return it, fmt.Errorf("train: non-causal iteration landmarks %+v", it)
	}
	return it, nil
}

// replicas is runIteration's grouping scratch for one iteration: src[i]
// is the device whose pass device i replays (-1 when it launches its
// own), marks[i] a source's stream state before its pass, and prof the
// profile's point before the current source's pass.
type replicas struct {
	src   []int
	marks []cuda.StreamMark
	prof  profiler.Mark
}

// replicaPool recycles the grouping scratch, as periods does the stop
// rule's: a compile needs it only while an iteration runs.
var replicaPool = sync.Pool{New: func() any { return new(replicas) }}

// replicas returns the iteration's grouping scratch, with no replica yet,
// or nil when every device launches its own pass: with one device, with
// a Detailed profile, under the perDevice hook, or when the pass launches
// no forward kernel (the entry keys a pass that does).
func (t *Trainer) replicas() *replicas {
	n := len(t.devs)
	if n < 2 || t.perDevice || t.prof.Detailed() || len(t.tables[0].fwdDur) == 0 {
		return nil
	}
	r := replicaPool.Get().(*replicas)
	if cap(r.src) < n {
		r.src, r.marks = make([]int, n), make([]cuda.StreamMark, n)
	}
	r.src, r.marks = r.src[:n], r.marks[:n]
	for i := range r.src {
		r.src[i] = -1
	}
	return r
}

// group makes every later device that runs device i's kernel table with
// device i's pass entry a replica of device i, and returns how many it
// made. A device's entry is fixed until its own pass: no other device's
// pass books its host thread, its queue or its stream.
func (r *replicas) group(t *Trainer, i int, iterStart time.Duration, staged []time.Duration) int64 {
	entry := t.compute[i].Entry(iterStart, staged[i])
	var n int64
	for j := i + 1; j < len(t.devs); j++ {
		if r.src[j] < 0 && t.tables[j] == t.tables[i] && t.compute[j].Entry(iterStart, staged[j]) == entry {
			r.src[j] = i
			n++
		}
	}
	return n
}

// layerGrad is one parameter array's gradient availability during an
// iteration's exchange phase.
type layerGrad struct {
	bytes units.Bytes
	ready time.Duration
}

// launchBackward launches one GPU's backward runs on stream s from host,
// and records each weighted layer's gradient-ready time in grads (in
// launch order): the first GPU appends an entry per layer and every later
// one raises it to its own time — synchronous SGD starts a layer's
// exchange when the slowest GPU has its gradient. It returns the host
// clock, grads, and bpEnd raised to the runs' latest end.
func launchBackward(s *cuda.Stream, runs runTable, host time.Duration, first bool, grads []layerGrad, bpEnd time.Duration) (time.Duration, []layerGrad, time.Duration) {
	gi := 0
	for ri, cut := range runs.cuts {
		var runEnd time.Duration
		host, runEnd = s.LaunchRun(profiler.StageBP, runs.run(ri), host)
		if cut.layer != nil {
			if first {
				size := units.BytesOf(cut.layer.Params, units.Float32Size)
				grads = append(grads, layerGrad{bytes: size, ready: runEnd})
			} else if runEnd > grads[gi].ready {
				grads[gi].ready = runEnd
			}
			gi++
		}
		if runEnd > bpEnd {
			bpEnd = runEnd
		}
	}
	return host, grads, bpEnd
}

// exchange pushes array a's gradient, ready at ready, to the root,
// applies the update kernel upd there, and pulls the fresh weights back,
// returning when the pull ends.
func (t *Trainer) exchange(a *kvstore.Array, ready time.Duration, upd cuda.Kernel) (time.Duration, error) {
	pushEnd, err := t.backend.PushGradient(profiler.StageWU, a, ready)
	if err != nil {
		return 0, err
	}
	return t.backend.PullWeights(profiler.StageWU, a, t.bookUpdate(pushEnd, upd))
}
