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
// does for every ring hop of every collective: each direction is resolved
// once (Direction) and booked many times.
func BenchmarkOccupy(b *testing.B) {
	top := topology.DGX1()
	f := New(top)
	links := top.Links()
	dirs := make([]*sim.Resource, len(links))
	for i, l := range links {
		dirs[i] = f.Direction(l, l.A)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, endSink = dirs[i%len(dirs)].Book(0, time.Microsecond)
	}
}
