package profiler

import (
	"testing"
	"time"
)

// BenchmarkRecordSlot measures the recording hot path: one activity added
// by its interned slot, as the runtime records every launch and API call.
func BenchmarkRecordSlot(b *testing.B) {
	p := New()
	s := p.Intern(KindKernel, "volta_sgemm_128x64_nn")
	iv := Interval{Kind: KindKernel, Name: "volta_sgemm_128x64_nn", Stage: StageFP,
		Track: "GPU0/compute", Start: time.Microsecond, End: 3 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RecordSlot(s, iv)
	}
}
