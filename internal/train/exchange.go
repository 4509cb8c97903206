package train

import (
	"time"

	"repro/internal/cuda"
	"repro/internal/nccl"
	"repro/internal/profiler"
	"repro/internal/units"
)

// Method selects how a data-parallel trainer exchanges gradients and
// weights.
type Method string

// Communication methods. MethodP2P and MethodNCCL are the paper's two
// GPU-side methods: the "device" kvstore's peer-copy tree and the NCCL
// collectives. MethodLocal is MXNet's default kvstore, the baseline they
// were introduced to beat: the parameter server lives on the host CPU, so
// gradients cross PCIe device-to-host, the CPU sums and updates, and
// weights cross back host-to-device.
const (
	MethodP2P   Method = "p2p"
	MethodNCCL  Method = "nccl"
	MethodLocal Method = "local"
)

// cpuUpdateBW is the effective rate at which the Xeon sums gradient
// arrays and applies the update (memory-bandwidth-bound vector work across
// the socket).
const cpuUpdateBW = 30 * units.GBPerSec

// array is one parameter array's exchange: its size per device, and the
// costs of moving it that depend on nothing booked. A trainer exchanges
// the same arrays every iteration, so it prices each once (Trainer.array);
// an array of any other size (a fused bucket) is priced on the fly
// (Trainer.bucket). Each method reads the costs of its own transport.
type array struct {
	size units.Bytes
	// adds[i] is rank i's gradient-accumulate kernel duration for the
	// array (p2p.AddCost on rank i's spec), for the P2P reduction.
	adds []time.Duration
	// wire is the array's NCCL collective wire times.
	wire nccl.Wire
}

// exchange aggregates array a's gradient, ready at ready, on the root
// (devs[0]), runs the update kernel upd there, and distributes the fresh
// weights to every device, returning when the last device has them.
//
//   - nccl all-reduces the gradient and broadcasts the weights, as the
//     paper describes MXNet's NCCL kvstore;
//   - p2p reduces through a binary tree of peer copies onto the root and
//     copies the weights back out from it;
//   - local uploads every device's gradient over PCIe, sums it on the
//     host CPU and downloads the weights over PCIe. The server holds the
//     aggregate, so the update kernel stands for the copy-in; its cost is
//     small next to the PCIe crossings either way.
func (t *Trainer) exchange(a *array, ready time.Duration, upd cuda.Kernel) (time.Duration, error) {
	switch t.cfg.Method {
	case MethodNCCL:
		reduced := t.comm.AllReducePriced(profiler.StageWU, a.wire, ready)
		return t.comm.BroadcastPriced(profiler.StageWU, a.wire, t.bookUpdate(reduced, upd)), nil
	case MethodP2P:
		reduced, err := t.p2p.ReduceToRoot(profiler.StageWU, a.size, ready, a.adds)
		if err != nil {
			return 0, err
		}
		return t.p2p.BroadcastFromRoot(profiler.StageWU, a.size, t.bookUpdate(reduced, upd))
	}
	var uploaded time.Duration
	for _, d := range t.devs {
		_, end, err := t.rt.MemcpyDeviceToHost(d, a.size, profiler.StageWU, ready, ready)
		if err != nil {
			return 0, err
		}
		if end > uploaded {
			uploaded = end
		}
	}
	// CPU-side reduction: read G arrays, write one.
	work := units.TransferTime(units.Bytes(len(t.devs)+1)*a.size, cpuUpdateBW)
	_, summed := t.rt.CPUWork("CPU/kvstore", profiler.StageWU, uploaded, work)
	updated := t.bookUpdate(summed, upd)
	var end time.Duration
	for _, d := range t.devs {
		_, e, err := t.rt.MemcpyHostToDevice(d, a.size, profiler.StageWU, updated)
		if err != nil {
			return 0, err
		}
		if e > end {
			end = e
		}
	}
	return end, nil
}
