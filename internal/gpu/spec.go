// Package gpu models a single GPU: its performance envelope (a roofline
// with an occupancy correction), its execution queues, and its memory
// capacity. The default Spec reproduces the Tesla V100 in the paper's
// DGX-1.
package gpu

import (
	"time"

	"repro/internal/units"
)

// KernelClass selects which compute roof a kernel runs against.
type KernelClass int

// Kernel classes.
const (
	// ClassTensor kernels (convolutions and GEMMs lowered to matrix
	// blocks) can use the V100's tensor cores.
	ClassTensor KernelClass = iota
	// ClassFMA kernels run on the ordinary FP32 pipelines.
	ClassFMA
	// ClassMemory kernels (activations, pooling, batchnorm, elementwise)
	// are DRAM-bandwidth-bound; their FLOPs are negligible.
	ClassMemory
)

// String names the class.
func (c KernelClass) String() string {
	switch c {
	case ClassTensor:
		return "tensor"
	case ClassFMA:
		return "fma"
	case ClassMemory:
		return "memory"
	}
	return "unknown"
}

// Spec is a GPU's hardware envelope.
type Spec struct {
	Name string
	SMs  int

	// Peak arithmetic rates.
	PeakFP32   units.FLOPRate
	PeakTensor units.FLOPRate

	// Memory system.
	MemBW       units.Bandwidth
	MemCapacity units.Bytes

	// KernelGap is the device-side gap between consecutive kernels on a
	// stream (scheduling, not host launch — that is the CUDA runtime's
	// cost).
	KernelGap time.Duration

	// OccupancyHalf is the parallelism (threads of work) at which a kernel
	// reaches half of its achievable throughput. Small kernels cannot fill
	// the SM array; this single knob models that.
	OccupancyHalf int64
}

// V100 returns the Tesla V100-SXM2-16GB used in the Volta DGX-1:
// 80 SMs, 15.7 TFLOPS FP32, 125 TFLOPS tensor, 16 GB HBM2 at 900 GB/s.
func V100() Spec {
	return Spec{
		Name:          "Tesla V100-SXM2-16GB",
		SMs:           80,
		PeakFP32:      15.7 * units.TFLOPPerSec,
		PeakTensor:    125 * units.TFLOPPerSec,
		MemBW:         900 * units.GBPerSec,
		MemCapacity:   16 * units.GB,
		KernelGap:     2500 * time.Nanosecond,
		OccupancyHalf: 48 * 1024,
	}
}

// P100 returns the Tesla P100-SXM2-16GB of the Pascal-generation DGX-1
// (the system the paper's related work compares against): 56 SMs,
// 10.6 TFLOPS FP32, no tensor cores, 16 GB HBM2 at 720 GB/s.
func P100() Spec {
	return Spec{
		Name:          "Tesla P100-SXM2-16GB",
		SMs:           56,
		PeakFP32:      10.6 * units.TFLOPPerSec,
		PeakTensor:    10.6 * units.TFLOPPerSec, // no tensor cores: same roof
		MemBW:         720 * units.GBPerSec,
		MemCapacity:   16 * units.GB,
		KernelGap:     2500 * time.Nanosecond,
		OccupancyHalf: 36 * 1024,
	}
}

// A100 returns the A100-SXM4-40GB of the Ampere generation that followed
// the paper's Volta: 108 SMs, 19.5 TFLOPS FP32, 312 TFLOPS dense tensor,
// 40 GB HBM2e at 1555 GB/s. The occupancy knee scales with the larger SM
// array: small kernels are even further from filling the machine, which
// is why the paper's small-network pathologies get worse, not better, on
// newer parts.
func A100() Spec {
	return Spec{
		Name:          "NVIDIA A100-SXM4-40GB",
		SMs:           108,
		PeakFP32:      19.5 * units.TFLOPPerSec,
		PeakTensor:    312 * units.TFLOPPerSec,
		MemBW:         1555 * units.GBPerSec,
		MemCapacity:   40 * units.GB,
		KernelGap:     2500 * time.Nanosecond,
		OccupancyHalf: 64 * 1024,
	}
}

// H100 returns the H100-SXM5-80GB of the Hopper generation: 132 SMs,
// 67 TFLOPS FP32, 989 TFLOPS dense tensor, 80 GB HBM3 at 3350 GB/s.
func H100() Spec {
	return Spec{
		Name:          "NVIDIA H100-SXM5-80GB",
		SMs:           132,
		PeakFP32:      67 * units.TFLOPPerSec,
		PeakTensor:    989 * units.TFLOPPerSec,
		MemBW:         3350 * units.GBPerSec,
		MemCapacity:   80 * units.GB,
		KernelGap:     2500 * time.Nanosecond,
		OccupancyHalf: 80 * 1024,
	}
}

// Slowed returns the spec with every throughput roof (FP32, tensor, DRAM)
// divided by factor — the straggler-GPU model fault plans inject: thermal
// throttling or a sick HBM stack slows every kernel class uniformly
// without changing capacity or the host-side costs. A factor <= 1 returns
// the spec unchanged.
func (s Spec) Slowed(factor float64) Spec {
	if factor <= 1 {
		return s
	}
	s.PeakFP32 = units.FLOPRate(float64(s.PeakFP32) / factor)
	s.PeakTensor = units.FLOPRate(float64(s.PeakTensor) / factor)
	s.MemBW = units.Bandwidth(float64(s.MemBW) / factor)
	return s
}

// KernelCost is a kernel's resource demand, computed by the DNN layer
// planner.
type KernelCost struct {
	// Name identifies the kernel for profiling (e.g. "conv2d_fprop").
	Name string
	// FLOPs of arithmetic work.
	FLOPs units.FLOPs
	// MemBytes of DRAM traffic (reads + writes).
	MemBytes units.Bytes
	// Parallelism is the number of independent work items (output
	// elements), which drives occupancy.
	Parallelism int64
	// Class selects the roof.
	Class KernelClass
	// Eff is the fraction of the roof achievable at full occupancy
	// (algorithmic efficiency: im2col overheads, tail effects). Zero means
	// a default of 1.
	Eff float64
}

// Occupancy returns the throughput fraction attainable at the given
// parallelism: p / (p + half). It rises from ~0 for tiny kernels to ~1 for
// kernels with far more work items than the machine has lanes.
func (s Spec) Occupancy(parallelism int64) float64 {
	if parallelism <= 0 {
		return 0
	}
	p := float64(parallelism)
	return p / (p + float64(s.OccupancyHalf))
}

// KernelDuration estimates the kernel's execution time: the max of its
// compute-roof time and its memory-roof time, both discounted by occupancy,
// plus the device-side scheduling gap.
func (s Spec) KernelDuration(c KernelCost) time.Duration {
	eff := c.Eff
	if eff <= 0 {
		eff = 1
	}
	occ := s.Occupancy(c.Parallelism)
	if occ <= 0 {
		return s.KernelGap
	}

	var roof units.FLOPRate
	switch c.Class {
	case ClassTensor:
		roof = s.PeakTensor
	case ClassFMA:
		roof = s.PeakFP32
	case ClassMemory:
		roof = 0
	}

	var compute time.Duration
	if roof > 0 && c.FLOPs > 0 {
		compute = units.ComputeTime(c.FLOPs, units.FLOPRate(float64(roof)*eff*occ))
	}
	var memory time.Duration
	if c.MemBytes > 0 {
		memory = units.TransferTime(c.MemBytes, units.Bandwidth(float64(s.MemBW)*occ))
	}
	d := compute
	if memory > d {
		d = memory
	}
	return s.KernelGap + d
}
