package dnn

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/memo"
	"repro/internal/units"
)

// PlanOptions tunes how network layers are lowered to kernels.
type PlanOptions struct {
	// TensorCores lowers convolutions and fully-connected GEMMs to the
	// tensor-core pipeline (the V100 feature the paper highlights);
	// otherwise they use FP32 FMA pipes.
	TensorCores bool
	// Winograd lowers eligible 3x3 stride-1 convolutions through the
	// F(2x2,3x3) Winograd transform — 2.25x fewer multiplies at the cost
	// of transform overhead (a cuDNN algorithm choice of the paper's era;
	// the kernel-level optimization axis of the related work).
	Winograd bool
}

// winogradSavings is the arithmetic reduction of F(2x2,3x3); winogradEff
// discounts for the input/output transforms.
const (
	winogradSavings = 2.25
	winogradEff     = 0.80
)

// winogradEligible reports whether a conv can take the Winograd path.
func winogradEligible(op Op) bool {
	c, ok := op.(Conv)
	if !ok {
		return false
	}
	sh, sw := c.strides()
	return c.KH == 3 && c.KW == 3 && sh == 1 && sw == 1 && c.groups() == 1
}

// Achievable fractions of the respective peaks, calibrated so V100
// throughput lands in the range frameworks of the paper's era reported
// (ResNet-50-class networks at a few hundred images/s/GPU).
const (
	convTensorEff = 0.10
	convFMAEff    = 0.45
	fcEff         = 0.25
)

// gemmCost classifies a conv/FC kernel.
func gemmCost(opt PlanOptions, effFMA float64, effTensor float64) (gpu.KernelClass, float64) {
	if opt.TensorCores {
		return gpu.ClassTensor, effTensor
	}
	return gpu.ClassFMA, effFMA
}

// Kernel passes, each naming its kernels with a suffix.
const (
	passFprop = iota
	passDgrad
	passWgrad
	passBgrad
	numPasses
)

var passSuffix = [numPasses]string{"_fprop", "_dgrad", "_wgrad", "_bgrad"}

// kernelNames[k][p] is op kind k's kernel name in pass p ("conv_fprop"),
// built once, so the plans of every batch share their name strings.
var kernelNames = func() (t [OpSoftmax + 1][numPasses]string) {
	for k := range t {
		for p := range t[k] {
			t[k][p] = OpKind(k).String() + passSuffix[p]
		}
	}
	return t
}()

// kernelName names kind k's kernel in pass p.
func kernelName(k OpKind, p int) string {
	if k >= 0 && int(k) < len(kernelNames) {
		return kernelNames[k][p]
	}
	return k.String() + passSuffix[p]
}

// lowered counts the nodes that lower to kernels (all but input and
// flatten nodes), which is the length of both plans.
func (n *Network) lowered() int {
	c := 0
	for _, nd := range n.nodes {
		switch nd.Op.Kind() {
		case OpInput, OpFlatten:
		default:
			c++
		}
	}
	return c
}

// forwardKernel lowers one node's forward pass.
func forwardKernel(n *Node, batch int, opt PlanOptions) gpu.KernelCost {
	b := int64(batch)
	mem := (n.InputBytesPerImage()+n.ActivationBytesPerImage())*units.Bytes(b) +
		units.BytesOf(n.ParamsN, units.Float32Size)
	c := gpu.KernelCost{
		Name:        kernelName(n.Op.Kind(), passFprop),
		FLOPs:       n.FwdFLOPs * units.FLOPs(b),
		MemBytes:    mem,
		Parallelism: n.Out.Elems() * b,
	}
	switch n.Op.Kind() {
	case OpConv:
		c.Class, c.Eff = gemmCost(opt, convFMAEff, convTensorEff)
		if opt.Winograd && winogradEligible(n.Op) {
			c.Name = "conv_winograd_fprop"
			c.FLOPs = units.FLOPs(float64(c.FLOPs) / winogradSavings)
			c.Eff *= winogradEff
		}
	case OpFC:
		c.Class, c.Eff = gemmCost(opt, fcEff, fcEff/2)
	default:
		c.Class = gpu.ClassMemory
	}
	return c
}

// planKey identifies one memoized lowering of a network.
type planKey struct {
	batch int
	opt   PlanOptions
}

// compiledPlans is one memoized lowering: the forward kernel sequence and
// the backward steps for a (batch, options) pair, and what callers derive
// from them (Derived).
type compiledPlans struct {
	fwd     []gpu.KernelCost
	bwd     []BackwardStep
	derived *memo.Group[any, any]
}

// derivedMax bounds the values one plan keeps beside it: a few per device
// spec, over the handful of GPU generations the machines carry.
const derivedMax = 16

// Derived returns derive's result for the (batch, opt) plan of n and key,
// computed once and kept beside the memoized plan: the plan memo bounds
// it, and it goes with the plan (models.ResetCache drops the zoo's
// networks, and with them every plan). derive receives the plan's
// forward kernels and backward steps, read-only, and must be a pure
// function of them and key; its result is shared, so callers treat it as
// read-only. Keys of distinct types never collide, so each caller keys by
// a type of its own, and that type fixes V.
func Derived[K comparable, V any](n *Network, batch int, opt PlanOptions, key K, derive func(fwd []gpu.KernelCost, bwd []BackwardStep) V) V {
	p := n.compiled(batch, opt)
	if v, ok := p.derived.Lookup(key); ok {
		return v.(V)
	}
	// Deriving is cheap next to a flight, so concurrent first callers
	// each derive, and the last one's equal value stays.
	v := derive(p.fwd, p.bwd)
	p.derived.Add(key, v)
	return v
}

// compiled returns the memoized plans for a batch size and option set,
// lowering them on first use. The returned plans are shared — callers
// must treat the slices and the steps they contain as read-only (the
// trainer copies kernels by value when it needs to relabel them).
func (n *Network) compiled(batch int, opt PlanOptions) *compiledPlans {
	if batch <= 0 {
		panic(fmt.Sprintf("dnn: bad batch size %d", batch))
	}
	key := planKey{batch: batch, opt: opt}
	if p, ok := n.plans.Get(key); ok {
		return p
	}
	p, _, _ := n.plans.Do(context.Background(), key, memo.Inline, func(context.Context) (*compiledPlans, error) {
		return &compiledPlans{
			fwd:     n.lowerForward(batch, opt),
			bwd:     n.lowerBackward(batch, opt),
			derived: memo.New[any, any](derivedMax),
		}, nil
	})
	return p
}

// ForwardPlan lowers the network's forward pass for one mini-batch into an
// ordered kernel sequence (input and zero-cost reshape nodes emit nothing).
// The plan is memoized per (batch, options); treat it as read-only.
func (n *Network) ForwardPlan(batch int, opt PlanOptions) []gpu.KernelCost {
	return n.compiled(batch, opt).fwd
}

func (n *Network) lowerForward(batch int, opt PlanOptions) []gpu.KernelCost {
	plan := make([]gpu.KernelCost, 0, n.lowered())
	for _, nd := range n.nodes {
		switch nd.Op.Kind() {
		case OpInput, OpFlatten:
			continue
		}
		plan = append(plan, forwardKernel(nd, batch, opt))
	}
	return plan
}

// BackwardStep is one node's backward pass: its kernels, and — if the node
// carries weights — the parameter array whose gradient becomes available
// when the step completes. The weight-update stage begins exchanging that
// gradient immediately (MXNet's BP/WU pipelining).
type BackwardStep struct {
	Node    *Node
	Kernels []gpu.KernelCost
	// Layer is non-nil when this step produces a weight gradient.
	Layer *WeightedLayer
}

// BackwardPlan lowers the backward pass in reverse topological order.
// The plan is memoized per (batch, options); treat it as read-only.
func (n *Network) BackwardPlan(batch int, opt PlanOptions) []BackwardStep {
	return n.compiled(batch, opt).bwd
}

func (n *Network) lowerBackward(batch int, opt PlanOptions) []BackwardStep {
	b := int64(batch)
	steps := make([]BackwardStep, 0, n.lowered())
	for i := len(n.nodes) - 1; i >= 0; i-- {
		nd := n.nodes[i]
		switch nd.Op.Kind() {
		case OpInput, OpFlatten:
			continue
		}
		kind := nd.Op.Kind()
		inB := nd.InputBytesPerImage() * units.Bytes(b)
		outB := nd.ActivationBytesPerImage() * units.Bytes(b)
		paramB := units.BytesOf(nd.ParamsN, units.Float32Size)
		step := BackwardStep{Node: nd}
		switch nd.Op.Kind() {
		case OpConv, OpFC:
			class, eff := gemmCost(opt, convFMAEff, convTensorEff)
			flopScale := 1.0
			if nd.Op.Kind() == OpFC {
				class, eff = gemmCost(opt, fcEff, fcEff/2)
			} else if opt.Winograd && winogradEligible(nd.Op) {
				flopScale = 1 / winogradSavings
				eff *= winogradEff
			}
			step.Kernels = []gpu.KernelCost{
				// Data gradient: same arithmetic as forward.
				{
					Name:        kernelName(kind, passDgrad),
					FLOPs:       units.FLOPs(float64(nd.FwdFLOPs*units.FLOPs(b)) * flopScale),
					MemBytes:    inB + outB + paramB,
					Parallelism: nd.Inputs[0].Out.Elems() * b,
					Class:       class,
					Eff:         eff,
				},
				// Weight gradient: same arithmetic, writes the gradient array.
				{
					Name:        kernelName(kind, passWgrad),
					FLOPs:       units.FLOPs(float64(nd.FwdFLOPs*units.FLOPs(b)) * flopScale),
					MemBytes:    inB + outB + 2*paramB,
					Parallelism: maxI64(nd.ParamsN, nd.Out.Elems()*b/4),
					Class:       class,
					Eff:         eff,
				},
			}
		default:
			flops := nd.FwdFLOPs * units.FLOPs(b)
			if nd.Op.Kind() == OpBatchNorm {
				flops *= 2 // reductions over the batch in both directions
			}
			step.Kernels = []gpu.KernelCost{{
				Name:        kernelName(kind, passBgrad),
				FLOPs:       flops,
				MemBytes:    2 * (inB + outB),
				Parallelism: nd.Out.Elems() * b,
				Class:       gpu.ClassMemory,
			}}
		}
		if nd.Op.Weighted() && nd.ParamsN > 0 {
			step.Layer = &WeightedLayer{Name: nd.Name, Params: nd.ParamsN}
		}
		steps = append(steps, step)
	}
	return steps
}

// CutPoints returns the indices i (into Nodes()) after which the network
// can be cleanly split into a prefix and a suffix: exactly one produced
// tensor is still live (node i's own output), so a pipeline stage boundary
// transfers a single activation. The final node is never a cut.
func (n *Network) CutPoints() []int {
	consumers := make(map[*Node]int, len(n.nodes))
	for _, nd := range n.nodes {
		for _, in := range nd.Inputs {
			consumers[in]++
		}
	}
	remaining := make(map[*Node]int, len(n.nodes))
	for nd, c := range consumers {
		remaining[nd] = c
	}
	var cuts []int
	live := 0
	for i, nd := range n.nodes {
		if consumers[nd] > 0 {
			live++
		}
		for _, in := range nd.Inputs {
			remaining[in]--
			if remaining[in] == 0 {
				live--
			}
		}
		if i == len(n.nodes)-1 {
			break
		}
		if live == 1 && consumers[nd] > 0 {
			// The only live tensor must be this node's own output;
			// otherwise the boundary would need an older tensor too.
			cuts = append(cuts, i)
		}
	}
	return cuts
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PlanDuration sums kernel durations back-to-back on one device spec (an
// unpipelined lower-level baseline used by tests and analytic checks).
func PlanDuration(spec gpu.Spec, ks []gpu.KernelCost) (d int64) {
	for _, k := range ks {
		d += int64(spec.KernelDuration(k))
	}
	return d
}
