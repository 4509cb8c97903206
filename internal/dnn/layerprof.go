package dnn

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/gpu"
	"repro/internal/units"
)

// LayerStat is one layer's analytical profile — the layer-by-layer
// characterization style of the CNN profiling work the paper builds on.
type LayerStat struct {
	Name   string
	Kind   OpKind
	Output Shape
	Params int64

	FPTime time.Duration
	BPTime time.Duration
	FLOPs  units.FLOPs // per mini-batch, forward + backward
	Bytes  units.Bytes // DRAM traffic per mini-batch, forward + backward

	// BoundBy names the roofline regime of the layer's forward kernel:
	// "compute", "memory", or "overhead" (too little work to fill the
	// device; launch/gap dominated).
	BoundBy string
}

// Total returns FP + BP time.
func (s LayerStat) Total() time.Duration { return s.FPTime + s.BPTime }

// ProfileLayers computes per-layer execution estimates for one mini-batch
// on the given device. Layers that lower to no kernel are omitted.
func ProfileLayers(n *Network, batch int, spec gpu.Spec, opt PlanOptions) []LayerStat {
	// Both plans cover the lowered nodes, one forward kernel each and the
	// backward steps in reverse: the j-th lowered node's step is the j-th
	// from the end.
	fwd, bwd := n.ForwardPlan(batch, opt), n.BackwardPlan(batch, opt)
	out := make([]LayerStat, 0, len(fwd))
	for j, k := range fwd {
		step := bwd[len(bwd)-1-j]
		st := LayerStat{
			Name:    step.Node.Name,
			Kind:    step.Node.Op.Kind(),
			Output:  step.Node.Out,
			Params:  step.Node.ParamsN,
			FPTime:  spec.KernelDuration(k),
			FLOPs:   k.FLOPs,
			Bytes:   k.MemBytes,
			BoundBy: boundBy(spec, k),
		}
		for _, k := range step.Kernels {
			st.BPTime += spec.KernelDuration(k)
			st.FLOPs += k.FLOPs
			st.Bytes += k.MemBytes
		}
		out = append(out, st)
	}
	return out
}

// boundBy classifies a kernel's roofline regime.
func boundBy(spec gpu.Spec, k gpu.KernelCost) string {
	d := spec.KernelDuration(k)
	if d <= 2*spec.KernelGap {
		return "overhead"
	}
	occ := spec.Occupancy(k.Parallelism)
	if occ <= 0 {
		return "overhead"
	}
	memT := units.TransferTime(k.MemBytes, units.Bandwidth(float64(spec.MemBW)*occ))
	// Memory-bound when DRAM traffic sets the kernel's duration.
	if memT >= d-spec.KernelGap {
		return "memory"
	}
	return "compute"
}

// TopLayers returns the k most expensive layers by FP+BP time.
func TopLayers(stats []LayerStat, k int) []LayerStat {
	out := append([]LayerStat(nil), stats...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total() > out[j].Total() })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// FormatLayerTable renders layer stats as an aligned table.
func FormatLayerTable(stats []LayerStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-10s %-14s %-10s %-12s %-12s %-10s %s\n",
		"layer", "op", "output", "params", "fp", "bp", "bound-by", "GFLOPs/batch")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-24s %-10s %-14s %-10d %-12v %-12v %-10s %.2f\n",
			s.Name, s.Kind, s.Output, s.Params,
			s.FPTime.Round(time.Microsecond), s.BPTime.Round(time.Microsecond),
			s.BoundBy, float64(s.FLOPs)/1e9)
	}
	return b.String()
}
