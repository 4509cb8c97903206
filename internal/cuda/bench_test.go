package cuda

import (
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/topology"
)

// resnetNet returns ResNet-50.
func resnetNet(b *testing.B) *dnn.Network {
	b.Helper()
	d, err := models.ByName("resnet")
	if err != nil {
		b.Fatal(err)
	}
	return d.Net
}

// resnetPlan returns ResNet-50's forward and backward kernels at batch 32.
func resnetPlan(b *testing.B) []gpu.KernelCost {
	net := resnetNet(b)
	opts := dnn.PlanOptions{TensorCores: true}
	plan := append([]gpu.KernelCost(nil), net.ForwardPlan(32, opts)...)
	for _, st := range net.BackwardPlan(32, opts) {
		plan = append(plan, st.Kernels...)
	}
	return plan
}

// benchRuntime is a profiled runtime over the DGX-1's eight GPUs.
func benchRuntime(b *testing.B) *Runtime {
	b.Helper()
	fab := interconnect.New(topology.DGX1())
	rt, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, DefaultCosts(), profiler.New())
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// v100Run returns plan's kernels on the V100 as one run, their names
// interned in rt's profile.
func v100Run(rt *Runtime, plan []gpu.KernelCost) Run {
	spec := gpu.V100()
	run := Run{Slots: make([]profiler.Slot, len(plan)), Durs: make([]time.Duration, len(plan))}
	for i, c := range plan {
		k := rt.NewKernel(c.Name, spec.KernelDuration(c))
		run.Slots[i], run.Durs[i] = k.Slot, k.Dur
	}
	run.RunSum = Summarize(run.Durs, rt.Costs().LaunchKernel)
	return run
}

// BenchmarkStreamLaunch measures one kernel launch from a lowered table:
// the host API call, the device booking and both profile records.
func BenchmarkStreamLaunch(b *testing.B) {
	rt := benchRuntime(b)
	run := v100Run(rt, resnetPlan(b))
	tab := make([]Kernel, len(run.Durs))
	for i := range tab {
		tab[i] = Kernel{Dur: run.Durs[i], Slot: run.Slots[i]}
	}
	s := rt.Stream(0)
	b.ReportAllocs()
	b.ResetTimer()
	var host time.Duration
	for i := 0; i < b.N; i++ {
		host, _ = s.Launch(profiler.StageFP, tab[i%len(tab)], host)
	}
}

// BenchmarkStreamLaunchRun measures launching ResNet-50's whole forward
// pass at batch 32 as one lowered run: two closed-form bookings, the
// launch API's aggregate and one slot update per kernel.
func BenchmarkStreamLaunchRun(b *testing.B) {
	rt := benchRuntime(b)
	run := v100Run(rt, resnetNet(b).ForwardPlan(32, dnn.PlanOptions{TensorCores: true}))
	s := rt.Stream(0)
	b.ReportAllocs()
	b.ResetTimer()
	var host time.Duration
	for i := 0; i < b.N; i++ {
		host, _ = s.LaunchRun(profiler.StageFP, run, host)
	}
	b.ReportMetric(float64(len(run.Durs)), "kernels/op")
}
