package nccl

import (
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// endSink keeps the booked completion times from being optimized away.
var endSink time.Duration

// BenchmarkAllReduce8 measures booking one 4 MiB all-reduce across the
// DGX-1's eight GPUs: per-rank host launches, the kernel windows, and the
// ring-link occupancy.
func BenchmarkAllReduce8(b *testing.B) {
	fab := interconnect.New(topology.DGX1())
	devs := []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), profiler.New())
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(rt, devs, Selection{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		endSink = c.AllReduce(profiler.StageWU, 4*units.MB, 0)
	}
}
