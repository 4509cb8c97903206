// Package memmodel estimates per-GPU memory usage of DNN training, the
// quantity the paper's Table IV reports via nvidia-smi: pre-training
// (context + model) and during-training (weights, gradients, optimizer
// state, retained feature maps, convolution workspaces, input staging),
// with the extra the root GPU pays for gradient aggregation and the
// authoritative weight copy.
package memmodel

import (
	"repro/internal/dnn"
	"repro/internal/units"
)

// Model parameters. Calibrated against the paper's anchors (AlexNet
// batch-64 at ~2.4 GB, Inception-v3 batch-64 at ~11 GB on GPU 0) and the
// OOM boundaries it reports.
const (
	// ContextBytes is the CUDA context plus cuDNN/cuBLAS/NCCL handles and
	// the framework's initial pool.
	ContextBytes = 550 * units.MB
	// ActivationRetention scales the raw sum of all layer outputs to the
	// retained training footprint: in-place activations/batchnorms and
	// progressive backward-buffer freeing reduce it; gradient feature maps
	// alive at the peak push it back up.
	ActivationRetention = 0.65
	// PoolOverhead models the framework allocator's rounding slack as a
	// fraction of dynamic (batch-scaled) allocations.
	PoolOverhead = 0.15
	// PerNodeReserve is the batch-independent per-layer cost: dependency-
	// engine staging buffers, cuDNN per-layer descriptors and autotuned
	// algorithm state, and allocator arenas. It is what makes large
	// networks' memory grow sublinearly in batch size (the paper's 1.83x
	// for Inception-v3 from batch 16 to 64).
	PerNodeReserve = 10 * units.MB
	// DriverReserve is the slice of device memory the driver and display
	// stack hold back; OOM checks subtract it from nominal capacity.
	DriverReserve = 600 * units.MB
)

// Estimate is the per-GPU memory breakdown for one configuration.
type Estimate struct {
	// PreTraining is usage after the model is transferred, before any
	// batch is processed (the same on every GPU).
	PreTraining units.Bytes

	// Components of training usage on a non-root worker.
	Weights     units.Bytes
	Gradients   units.Bytes
	Optimizer   units.Bytes
	FeatureMaps units.Bytes
	Workspace   units.Bytes
	InputQueue  units.Bytes
	Context     units.Bytes
	PoolSlack   units.Bytes

	// RootExtra is the additional memory the root GPU holds: the gradient
	// aggregation buffer and the authoritative weight copy it serves.
	RootExtra units.Bytes
}

// Worker returns total training usage on a non-root GPU.
func (e Estimate) Worker() units.Bytes {
	return e.Weights + e.Gradients + e.Optimizer + e.FeatureMaps +
		e.Workspace + e.InputQueue + e.Context + e.PoolSlack
}

// Root returns total training usage on the root GPU.
func (e Estimate) Root() units.Bytes { return e.Worker() + e.RootExtra }

// Fits reports whether training fits on every GPU of the given capacity:
// the root's usage plus DriverReserve must not exceed it (the root is the
// high-water mark, since RootExtra is never negative).
func (e Estimate) Fits(capacity units.Bytes) bool { return e.Root()+DriverReserve <= capacity }

// RootPremiumPercent returns the paper's "additional memory usage in GPU0
// w.r.t. GPUx" percentage.
func (e Estimate) RootPremiumPercent() float64 {
	w := e.Worker()
	if w == 0 {
		return 0
	}
	return 100 * float64(e.RootExtra) / float64(w)
}

// branchFactor approximates how many convolution workspaces are live
// concurrently: branchy graphs (inception modules, residual blocks) run
// parallel branches under the dependency engine.
func branchFactor(f dnn.Footprint) int {
	return min(max(f.MaxConsumers, 1), 2)
}

// Compute estimates memory for training net at the given per-GPU batch
// size. multiGPU selects whether the root-GPU aggregation extra applies
// (it is zero for single-GPU training, where no parameter server role
// exists).
func Compute(net *dnn.Network, batch int, multiGPU bool) Estimate {
	w := net.ModelBytes()
	f := net.Footprint()
	rawActs := units.BytesOf(f.ActivationElems, units.Float32Size)
	feature := units.Bytes(float64(rawActs) * ActivationRetention * float64(batch))
	workspace := units.BytesOf(f.MaxIm2colElems, units.Float32Size) * units.Bytes(batch*branchFactor(f))
	input := 2 * units.BytesOf(f.InputElems, units.Float32Size) * units.Bytes(batch)
	arena := PerNodeReserve * units.Bytes(f.Nodes)

	e := Estimate{
		Weights:     w,
		Gradients:   w,
		Optimizer:   w, // SGD momentum state
		FeatureMaps: feature,
		Workspace:   workspace,
		InputQueue:  input,
		Context:     ContextBytes + arena,
	}
	dynamic := e.FeatureMaps + e.Workspace + e.InputQueue
	e.PoolSlack = units.Bytes(float64(dynamic) * PoolOverhead)
	e.PreTraining = ContextBytes + w + units.Bytes(float64(w)*PoolOverhead)
	if multiGPU {
		// Aggregation buffer + served weight copy.
		e.RootExtra = 2 * w
	}
	return e
}

// CheckpointRetention returns the fraction of the naive activation
// footprint retained under sqrt-N gradient checkpointing (Chen et al.):
// only ~2*sqrt(n) of n activations stay resident; the rest are recomputed
// during the backward pass. This is the "algorithm-level change" the paper
// calls for to break the feature-map memory wall (its §V-D).
func CheckpointRetention(nodes int) float64 {
	if nodes <= 1 {
		return 1
	}
	f := 2 * sqrtF(float64(nodes)) / float64(nodes)
	if f > 1 {
		return 1
	}
	return f
}

// sqrtF is a dependency-free square root (Newton's method) — keeps the
// package's stdlib-only surface minimal and is exact enough for a ratio.
func sqrtF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// ComputeCheckpointed is Compute with sqrt-N gradient checkpointing
// applied to the feature-map term.
func ComputeCheckpointed(net *dnn.Network, batch int, multiGPU bool) Estimate {
	e := Compute(net, batch, multiGPU)
	f := CheckpointRetention(net.Footprint().Nodes)
	e.FeatureMaps = units.Bytes(float64(e.FeatureMaps) * f)
	dynamic := e.FeatureMaps + e.Workspace + e.InputQueue
	e.PoolSlack = units.Bytes(float64(dynamic) * PoolOverhead)
	return e
}

// ScaleStages converts a single-GPU estimate into a per-stage estimate for
// model-parallel training over the given stage count: the model and its
// activations are partitioned (approximated as an even split), the
// context is per-GPU, and there is no aggregation premium.
func ScaleStages(e Estimate, stages int) Estimate {
	if stages <= 1 {
		return e
	}
	div := func(b units.Bytes) units.Bytes { return b / units.Bytes(stages) }
	out := e
	out.Weights = div(e.Weights)
	out.Gradients = div(e.Gradients)
	out.Optimizer = div(e.Optimizer)
	out.FeatureMaps = div(e.FeatureMaps)
	out.Workspace = div(e.Workspace)
	out.PoolSlack = div(e.PoolSlack)
	out.RootExtra = 0
	out.PreTraining = e.Context + out.Weights
	return out
}

// FitsDevice reports whether the configuration trains within the given
// capacity on every GPU (Estimate.Fits).
func FitsDevice(net *dnn.Network, batch int, multiGPU bool, capacity units.Bytes) bool {
	return Compute(net, batch, multiGPU).Fits(capacity)
}

// MaxBatch returns the largest power-of-two-ish batch (from the candidate
// list) that fits, or 0 if none does.
func MaxBatch(net *dnn.Network, multiGPU bool, capacity units.Bytes, candidates []int) int {
	best := 0
	for _, b := range candidates {
		if b > 0 && FitsDevice(net, b, multiGPU, capacity) && b > best {
			best = b
		}
	}
	return best
}
