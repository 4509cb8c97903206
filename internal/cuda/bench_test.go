package cuda

import (
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/topology"
)

// resnetPlan returns ResNet-50's forward and backward kernels at batch 32.
func resnetPlan(b *testing.B) []gpu.KernelCost {
	b.Helper()
	d, err := models.ByName("resnet")
	if err != nil {
		b.Fatal(err)
	}
	opts := dnn.PlanOptions{TensorCores: true}
	plan := append([]gpu.KernelCost(nil), d.Net.ForwardPlan(32, opts)...)
	for _, st := range d.Net.BackwardPlan(32, opts) {
		plan = append(plan, st.Kernels...)
	}
	return plan
}

// benchRuntime is a profiled runtime over the DGX-1's eight GPUs.
func benchRuntime(b *testing.B) *Runtime {
	b.Helper()
	fab := interconnect.New(sim.NewEngine(), topology.DGX1())
	rt, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, DefaultCosts(), profiler.New())
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// tableSink keeps the lowered tables from being optimized away.
var tableSink []Kernel

// BenchmarkLowerResNet measures lowering one ResNet-50 iteration's plan
// into a launch table: a kernel duration and a profile slot per kernel.
func BenchmarkLowerResNet(b *testing.B) {
	plan := resnetPlan(b)
	rt := benchRuntime(b)
	spec := gpu.V100()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableSink = rt.Lower(nil, spec, plan)
	}
}

// BenchmarkStreamLaunch measures one kernel launch from a lowered table:
// the host API call, the device booking and both profile records.
func BenchmarkStreamLaunch(b *testing.B) {
	rt := benchRuntime(b)
	tab := rt.Lower(nil, gpu.V100(), resnetPlan(b))
	s := rt.Stream(0, "train")
	b.ReportAllocs()
	b.ResetTimer()
	var host time.Duration
	for i := 0; i < b.N; i++ {
		host, _ = s.Launch(profiler.StageFP, tab[i%len(tab)], host)
	}
}
