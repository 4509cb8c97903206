// Package p2p implements the peer-to-peer direct-transfer communication
// method the paper compares against NCCL: the MXNet "device" kvstore
// pattern, where gradients are aggregated onto GPU 0 through a binary
// reduction tree of cudaMemcpy peer transfers, and updated weights are
// broadcast from GPU 0 with multi-stage NVLink transfers (staged through an
// intermediate GPU when no direct link exists).
package p2p

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// KernelAdd names the gradient-accumulate kernel in profiles.
const KernelAdd = "reduce_add"

// Engine performs tree reductions and broadcasts over a fixed device set.
// devs[0] is the aggregation root (GPU 0 in the paper's MXNet).
type Engine struct {
	rt   *cuda.Runtime
	devs []topology.NodeID
	// add is the accumulate kernel's interned label; its duration is set
	// per transfer from the destination rank's add duration.
	add cuda.Kernel
	// avail is ReduceToRoot's per-call scratch (engines are single-threaded
	// within their run).
	avail []time.Duration
}

// New creates an engine over the devices.
func New(rt *cuda.Runtime, devs []topology.NodeID) (*Engine, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("p2p: need at least one device")
	}
	for _, d := range devs {
		if rt.Device(d) == nil {
			return nil, fmt.Errorf("p2p: device %d not managed by runtime", d)
		}
	}
	return &Engine{
		rt:    rt,
		devs:  append([]topology.NodeID(nil), devs...),
		add:   rt.NewKernel(KernelAdd, 0),
		avail: make([]time.Duration, len(devs)),
	}, nil
}

// Root returns the aggregation root.
func (e *Engine) Root() topology.NodeID { return e.devs[0] }

// Size returns the number of devices.
func (e *Engine) Size() int { return len(e.devs) }

// AddCost is the elementwise gradient-accumulate kernel run on the
// destination of each reduction transfer of size bytes. Its duration on a
// rank's spec is that rank's add duration (ReduceToRoot): a per-array
// constant, lowered once per spec, or priced on the fly (AddDurations).
func AddCost(size units.Bytes) gpu.KernelCost {
	elems := int64(size / units.Float32Size)
	return gpu.KernelCost{
		Name:        KernelAdd,
		FLOPs:       units.FLOPs(elems),
		MemBytes:    3 * size, // read two operands, write one
		Parallelism: elems,
		Class:       gpu.ClassMemory,
	}
}

// AddDurations prices the accumulate kernel for size bytes on every
// rank's spec into adds (indexed by rank, grown to the rank count) and
// returns it.
func (e *Engine) AddDurations(size units.Bytes, adds []time.Duration) []time.Duration {
	adds = adds[:0]
	for _, d := range e.devs {
		adds = append(adds, e.rt.Device(d).Spec.KernelDuration(AddCost(size)))
	}
	return adds
}

// ReduceToRoot aggregates size bytes from every device onto the root via a
// binary halving tree (the paper's example: GPU1->GPU0 and GPU3->GPU2 in
// parallel, then GPU2->GPU0). ready is when each device's gradient is
// available; adds[i] is rank i's accumulate-kernel duration for the array
// (AddCost on its spec, which differs on a straggler); the returned time
// is when the root holds the full sum.
func (e *Engine) ReduceToRoot(stage profiler.Stage, size units.Bytes, ready time.Duration, adds []time.Duration) (time.Duration, error) {
	n := len(e.devs)
	if n == 1 {
		return ready, nil
	}
	avail := e.avail
	for i := range avail {
		avail[i] = ready
	}
	for gap := 1; gap < n; gap *= 2 {
		for i := 0; i+gap < n; i += 2 * gap {
			dst, src := e.devs[i], e.devs[i+gap]
			srcReady := avail[i+gap]
			_, arrive, err := e.rt.MemcpyPeer(dst, src, size, stage, srcReady, srcReady)
			if err != nil {
				return 0, err
			}
			// The destination adds the arrived partial into its own once
			// both are present.
			dataReady := arrive
			if avail[i] > dataReady {
				dataReady = avail[i]
			}
			// The accumulate kernel runs on the destination's compute
			// stream, queueing behind whatever backpropagation work is
			// already enqueued there — MXNet's CommDevice behaviour, and
			// the reason P2P aggregation steals compute from GPU 0.
			k := e.add
			k.Dur = adds[i]
			_, end := e.rt.BookKernel(dst, false, stage, k, dataReady)
			avail[i] = end
		}
	}
	return avail[0], nil
}

// BroadcastFromRoot distributes size bytes from the root to every device:
// one routed peer copy per destination, issued in parallel (multi-stage
// store-and-forward where the topology requires it). It returns when the
// LAST device has the data — the synchronous-SGD barrier the paper blames
// for idle GPUs on asymmetric links.
func (e *Engine) BroadcastFromRoot(stage profiler.Stage, size units.Bytes, ready time.Duration) (time.Duration, error) {
	n := len(e.devs)
	if n == 1 {
		return ready, nil
	}
	end := ready
	for _, d := range e.devs[1:] {
		_, arrive, err := e.rt.MemcpyPeer(d, e.devs[0], size, stage, ready, ready)
		if err != nil {
			return 0, err
		}
		if arrive > end {
			end = arrive
		}
	}
	return end, nil
}

// BroadcastArrivals is BroadcastFromRoot but reports each destination's
// arrival time (used to analyze per-GPU idle time).
func (e *Engine) BroadcastArrivals(stage profiler.Stage, size units.Bytes, ready time.Duration) (map[topology.NodeID]time.Duration, error) {
	arrivals := make(map[topology.NodeID]time.Duration, len(e.devs))
	arrivals[e.devs[0]] = ready
	for _, d := range e.devs[1:] {
		_, arrive, err := e.rt.MemcpyPeer(d, e.devs[0], size, stage, ready, ready)
		if err != nil {
			return nil, err
		}
		arrivals[d] = arrive
	}
	return arrivals, nil
}
