package gpu

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Device is one simulated GPU: a spec, execution queues, and a memory
// allocator. Compute kernels share one SM-array queue; communication
// kernels (NCCL's Reduce/Broadcast kernels, which use a handful of SMs and
// are bandwidth-bound) run on a separate queue so they overlap compute, as
// they do on real hardware; DMA copies have their own copy-engine queue.
type Device struct {
	ID   topology.NodeID
	Spec Spec

	compute *sim.Resource
	comm    *sim.Resource
	dma     []*sim.Resource
	Memory  *Allocator
}

// dmaEngines is the number of usable copy engines per transfer direction
// (the V100 exposes several; two captures the paper-era concurrency).
const dmaEngines = 2

// NewDevice creates a device bound to the engine.
func NewDevice(eng *sim.Engine, id topology.NodeID, spec Spec) *Device {
	d := &Device{
		ID:      id,
		Spec:    spec,
		compute: sim.NewResource(eng, fmt.Sprintf("GPU%d/compute", id)),
		comm:    sim.NewResource(eng, fmt.Sprintf("GPU%d/comm", id)),
		Memory:  NewAllocator(spec.MemCapacity),
	}
	for i := 0; i < dmaEngines; i++ {
		d.dma = append(d.dma, sim.NewResource(eng, fmt.Sprintf("GPU%d/dma%d", id, i)))
	}
	return d
}

// BookKernel reserves the compute queue for a kernel of duration dur
// (Spec.KernelDuration, computed once when the plan is lowered), becoming
// eligible at ready; it returns the kernel's execution window.
func (d *Device) BookKernel(ready time.Duration, dur time.Duration) (start, end time.Duration) {
	return d.compute.Book(ready, dur)
}

// BookCommKernel reserves the communication-kernel queue for dur.
func (d *Device) BookCommKernel(ready time.Duration, dur time.Duration) (start, end time.Duration) {
	return d.comm.Book(ready, dur)
}

// BookDMA reserves the least-loaded copy engine for dur (the wire time is
// booked on the fabric separately; this models engine occupancy for
// back-to-back copies fanning out of one GPU).
func (d *Device) BookDMA(ready time.Duration, dur time.Duration) (start, end time.Duration) {
	best := d.dma[0]
	for _, r := range d.dma[1:] {
		if r.FreeAt() < best.FreeAt() {
			best = r
		}
	}
	return best.Book(ready, dur)
}

// QueueNames returns the compute and communication queues' names
// ("GPU<id>/compute", "GPU<id>/comm"), which double as profile tracks.
func (d *Device) QueueNames() (compute, comm string) { return d.compute.Name(), d.comm.Name() }

// ComputeBusy returns accumulated compute-queue busy time.
func (d *Device) ComputeBusy() time.Duration { return d.compute.BusyTime() }

// ComputeFreeAt returns when the compute queue drains.
func (d *Device) ComputeFreeAt() time.Duration { return d.compute.FreeAt() }

// CommFreeAt returns when the communication-kernel queue drains.
func (d *Device) CommFreeAt() time.Duration { return d.comm.FreeAt() }
