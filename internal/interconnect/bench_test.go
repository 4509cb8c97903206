package interconnect

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// endSink keeps the booked windows from being optimized away.
var endSink time.Duration

// BenchmarkOccupy measures booking one link direction, as the NCCL model
// does for every ring hop of every collective.
func BenchmarkOccupy(b *testing.B) {
	top := topology.DGX1()
	f := New(sim.NewEngine(), top)
	links := top.Links()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		_, endSink = f.Occupy(l, l.A, 0, time.Microsecond)
	}
}
