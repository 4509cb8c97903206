package train

import (
	"fmt"
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
}

func (it iterTimes) total() time.Duration { return it.barrier - it.start }

// sgdUpdateCost is the root GPU's weight-update kernel for one parameter
// array: w -= lr * (grad + momentum bookkeeping) — a bandwidth-bound axpy
// over the array.
func sgdUpdateCost(size units.Bytes) gpu.KernelCost {
	elems := int64(size / units.Float32Size)
	return gpu.KernelCost{
		Name:        "sgd_update",
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

// Run simulates one training epoch and returns its measurements.
func (t *Trainer) Run() (*Result, error) {
	if t.cfg.Parallelism == ModelParallel {
		if t.cfg.Async {
			return nil, fmt.Errorf("train: async model parallelism is not supported")
		}
		return t.runModelParallel()
	}
	if t.cfg.Parallelism == HybridOWT {
		if t.cfg.Async {
			return nil, fmt.Errorf("train: async hybrid parallelism is not supported")
		}
		if t.cfg.GPUs == 1 {
			return nil, fmt.Errorf("train: hybrid parallelism needs multiple GPUs")
		}
		return t.runHybridOWT()
	}
	if t.cfg.Async {
		return t.runAsync()
	}
	// Synchronous data parallelism compiles to a Window and extrapolates
	// it — the same path a warm artifact-cache hit takes, so cold and
	// cached runs share one finalization code path (and therefore produce
	// byte-identical results).
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

// runIteration simulates one synchronous iteration beginning at iterStart
// with each GPU's input batch staged at staged[i] (indexed like t.devs).
// It returns the iteration landmarks and overwrites staged with the next
// iteration's staging times.
func (t *Trainer) runIteration(iterStart time.Duration, staged []time.Duration) (iterTimes, error) {
	it := iterTimes{start: iterStart}

	// Per-layer gradient scratch, reused across iterations.
	grads := t.grads[:0]

	for i := range t.devs {
		s, tab := t.compute[i], t.tables[i]
		s.WaitEvent(staged[i])
		host := iterStart
		var kEnd time.Duration
		for _, k := range tab.fwd {
			host, kEnd = s.Launch(profiler.StageFP, k, host)
		}
		if kEnd > it.fpEnd {
			it.fpEnd = kEnd
		}
		// Gradient checkpointing re-executes the forward kernels between
		// checkpoints while backpropagating — approximately one extra
		// forward pass folded into BP.
		for _, k := range tab.recompute {
			host, _ = s.Launch(profiler.StageBP, k, host)
		}
		gi := 0
		for si, step := range t.bwd {
			var stepEnd time.Duration
			for _, k := range tab.bwd[si] {
				host, stepEnd = s.Launch(profiler.StageBP, k, host)
			}
			if step.Layer != nil {
				if i == 0 {
					size := units.BytesOf(step.Layer.Params, units.Float32Size)
					grads = append(grads, layerGrad{name: step.Layer.Name, bytes: size, ready: stepEnd})
				} else {
					// Synchronous SGD: a layer's exchange starts when the
					// slowest GPU has its gradient.
					if stepEnd > grads[gi].ready {
						grads[gi].ready = stepEnd
					}
					gi++
				}
			}
			if stepEnd > it.bpEnd {
				it.bpEnd = stepEnd
			}
		}
		// Iteration-end sync on the compute stream.
		s.Synchronize(profiler.StageBP, host)
	}

	// Weight update: push -> root update -> pull, pipelined in
	// gradient-availability (reverse layer) order. With bucketing enabled,
	// consecutive arrays are fused until the bucket reaches the threshold,
	// amortizing per-operation overheads at the cost of waiting for the
	// bucket's slowest member.
	lastPull := it.bpEnd
	exchange := func(name string, bytes units.Bytes, ready time.Duration, upd cuda.Kernel) error {
		pushEnd, err := t.backend.PushGradient(profiler.StageWU, name, bytes, ready)
		if err != nil {
			return err
		}
		updEnd := t.bookUpdate(pushEnd, upd)
		pullEnd, err := t.backend.PullWeights(profiler.StageWU, name, bytes, updEnd)
		if err != nil {
			return err
		}
		if pullEnd > lastPull {
			lastPull = pullEnd
		}
		return nil
	}
	var bucketBytes units.Bytes
	var bucketReady time.Duration
	bucketName := ""
	for j, g := range grads {
		if t.cfg.BucketBytes <= 0 {
			if err := exchange(g.name, g.bytes, g.ready, t.updates[j]); err != nil {
				return it, err
			}
			continue
		}
		bucketBytes += g.bytes
		if g.ready > bucketReady {
			bucketReady = g.ready
		}
		if bucketName == "" {
			bucketName = "bucket:" + g.name
		}
		if bucketBytes >= t.cfg.BucketBytes {
			if err := exchange(bucketName, bucketBytes, bucketReady, t.updateKernel(bucketBytes)); err != nil {
				return it, err
			}
			bucketBytes, bucketReady, bucketName = 0, 0, ""
		}
	}
	if bucketBytes > 0 {
		if err := exchange(bucketName, bucketBytes, bucketReady, t.updateKernel(bucketBytes)); err != nil {
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
	it.barrier = barrier
	t.grads = grads
	if it.fpEnd < iterStart || it.bpEnd < it.fpEnd || it.barrier < it.bpEnd {
		return it, fmt.Errorf("train: non-causal iteration landmarks %+v", it)
	}
	return it, nil
}

// layerGrad is one parameter array's gradient availability during an
// iteration's exchange phase.
type layerGrad struct {
	name  string
	bytes units.Bytes
	ready time.Duration
}
