package cuda

import (
	"slices"
	"testing"
	"time"

	"repro/internal/profiler"
	"repro/internal/topology"
)

// AppendState covers every device's threads and queues, every link
// direction, the CPU-side resources and the tail of every stream the
// runtime made, gangs included, each measured from the floor.
func TestRuntimeAppendState(t *testing.T) {
	devs := []topology.NodeID{0, 1}
	rt, _ := newRuntime(t, devs)
	compute := rt.Streams(devs, false)
	gang := rt.CommGang(devs)
	n := rt.StateLen()
	if want := 6*len(devs) + rt.Fabric().Directions() + 2*len(devs); n != want {
		t.Fatalf("StateLen = %d, want %d", n, want)
	}
	if s := rt.AppendState(nil, 0); len(s) != n || slices.ContainsFunc(s, func(d time.Duration) bool { return d != 0 }) {
		t.Fatalf("idle state %v", s)
	}
	compute[1].WaitEvent(50 * time.Microsecond)
	gang.Launch(profiler.StageWU, rt.NewKernel("collective", 0), 0, 30*time.Microsecond)
	rt.CPUWork("CPU/kvstore", profiler.StageWU, 0, 20*time.Microsecond)
	if got := rt.StateLen(); got != n+1 {
		t.Fatalf("StateLen after CPUWork = %d, want %d", got, n+1)
	}
	s := rt.AppendState(nil, 10*time.Microsecond)
	tails := s[len(s)-2*len(devs):]
	if tails[1] != 40*time.Microsecond || tails[2] == 0 || tails[2] != tails[3] {
		t.Fatalf("tails %v: want compute stream 1 at 40µs and both gang ranks at the collective's end", tails)
	}
	if cpu := s[len(s)-2*len(devs)-1]; cpu != 10*time.Microsecond {
		t.Fatalf("CPU resource at %v, want 10µs", cpu)
	}
	// Moving the floor past every time clamps the whole state to zero.
	if s := rt.AppendState(nil, time.Second); slices.ContainsFunc(s, func(d time.Duration) bool { return d != 0 }) {
		t.Fatalf("state past the floor %v", s)
	}
}
