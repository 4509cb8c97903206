package kvstore

import (
	"time"

	"repro/internal/cuda"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// MethodLocal is MXNet's default kvstore: the parameter server lives on
// the HOST CPU. Gradients cross PCIe device-to-host, the CPU sums and
// updates, and weights cross back host-to-device — the baseline the
// paper's two GPU-side methods (device/P2P and NCCL) were introduced to
// beat.
const MethodLocal Method = "local"

// cpuUpdateBW is the effective rate at which the Xeon sums gradient
// arrays and applies the update (memory-bandwidth-bound vector work across
// the socket).
const cpuUpdateBW = 30 * units.GBPerSec

// localBackend implements the CPU parameter server.
type localBackend struct {
	rt   *cuda.Runtime
	devs []topology.NodeID
}

func (b *localBackend) Name() Method             { return MethodLocal }
func (b *localBackend) Root() topology.NodeID    { return b.devs[0] }
func (b *localBackend) SetupCost() time.Duration { return 0 }

// Price prices nothing: the server's costs are booked from the size.
func (b *localBackend) Price(*Array) {}

// PushGradient uploads every device's gradient over PCIe and sums on the
// CPU; the aggregate is "on the root" in the sense that the server holds
// it (the subsequent update also runs on the CPU, so the trainer's
// GPU-side update kernel is effectively the copy-in; its cost is small
// next to the PCIe crossings either way).
func (b *localBackend) PushGradient(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error) {
	size := a.Size
	var uploaded time.Duration
	for _, d := range b.devs {
		_, end, err := b.rt.MemcpyDeviceToHost(d, size, stage, ready, ready)
		if err != nil {
			return 0, err
		}
		if end > uploaded {
			uploaded = end
		}
	}
	// CPU-side reduction: read G arrays, write one.
	work := units.TransferTime(units.Bytes(len(b.devs)+1)*size, cpuUpdateBW)
	_, end := b.rt.CPUWork("CPU/kvstore", stage, uploaded, work)
	return end, nil
}

// PullWeights downloads the updated weights to every device over PCIe.
func (b *localBackend) PullWeights(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error) {
	var end time.Duration
	for _, d := range b.devs {
		_, e, err := b.rt.MemcpyHostToDevice(d, a.Size, stage, ready)
		if err != nil {
			return 0, err
		}
		if e > end {
			end = e
		}
	}
	return end, nil
}
