package gpu

import (
	"errors"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ErrOutOfMemory is returned when a configuration's footprint exceeds
// device capacity. The paper hits this wall at batch 128 for Inception-v3
// and ResNet and at batch 256 for GoogLeNet; the trainer surfaces the
// same failures.
var ErrOutOfMemory = errors.New("gpu: out of memory")

// Device is one simulated GPU: a spec and its execution queues. Compute
// kernels share one SM-array queue; communication kernels (NCCL's
// Reduce/Broadcast kernels, which use a handful of SMs and are
// bandwidth-bound) run on a separate queue so they overlap compute, as
// they do on real hardware; DMA copies have their own copy-engine queue.
//
// The queues are held by value and start idle, so a Device{ID, Spec} is
// ready to book and a runtime keeps its devices in one slab. The queues
// carry no names: the CUDA runtime names its tracks once per machine.
type Device struct {
	ID   topology.NodeID
	Spec Spec

	compute sim.Resource
	comm    sim.Resource
	dma     [dmaEngines]sim.Resource
}

// dmaEngines is the number of usable copy engines per transfer direction
// (the V100 exposes several; two captures the paper-era concurrency).
const dmaEngines = 2

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

// Queue returns the compute queue, or the communication-kernel queue when
// comm is set, for callers that book a whole run of kernels in closed
// form (sim.Resource.BookRun).
func (d *Device) Queue(comm bool) *sim.Resource {
	if comm {
		return &d.comm
	}
	return &d.compute
}

// BookDMA reserves the least-loaded copy engine for dur (the wire time is
// booked on the fabric separately; this models engine occupancy for
// back-to-back copies fanning out of one GPU).
func (d *Device) BookDMA(ready time.Duration, dur time.Duration) (start, end time.Duration) {
	best := &d.dma[0]
	for i := 1; i < len(d.dma); i++ {
		if r := &d.dma[i]; r.FreeAt() < best.FreeAt() {
			best = r
		}
	}
	return best.Book(ready, dur)
}

// AppendState appends the device's queue free times, measured from floor
// and clamped at it (sim.Resource.FreeSince): compute, communication, and
// the copy engines as a sorted pair. BookDMA picks the engine that frees
// first, so its bookings depend only on the engines' free times as a
// multiset, not on which engine holds which.
func (d *Device) AppendState(buf []time.Duration, floor time.Duration) []time.Duration {
	a, b := d.dma[0].FreeSince(floor), d.dma[1].FreeSince(floor)
	return append(buf, d.compute.FreeSince(floor), d.comm.FreeSince(floor), min(a, b), max(a, b))
}

// ComputeBusy returns accumulated compute-queue busy time.
func (d *Device) ComputeBusy() time.Duration { return d.compute.BusyTime() }
