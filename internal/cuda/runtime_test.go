package cuda

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

func newRuntime(t *testing.T, gpus []topology.NodeID) (*Runtime, *profiler.Profile) {
	t.Helper()
	fab := interconnect.New(topology.DGX1())
	prof := profiler.New()
	rt, err := NewRuntime(fab, gpu.V100(), gpus, DefaultCosts(), prof)
	if err != nil {
		t.Fatal(err)
	}
	return rt, prof
}

// kernel lowers one kernel cost for the V100 the test runtimes use.
func kernel(rt *Runtime, c gpu.KernelCost) Kernel {
	return rt.NewKernel(c.Name, gpu.V100().KernelDuration(c))
}

func TestNewRuntimeRejectsCPUs(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	if _, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{8}, DefaultCosts(), nil); err == nil {
		t.Error("CPU node should be rejected")
	}
	if _, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{99}, DefaultCosts(), nil); err == nil {
		t.Error("unknown node should be rejected")
	}
}

func TestStreamOrdering(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0})
	s := rt.Stream(0)
	c := kernel(rt, gpu.KernelCost{Name: "k", FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: gpu.ClassFMA})
	_, end1 := s.Launch(profiler.StageFP, c, 0)
	_, end2 := s.Launch(profiler.StageFP, c, 0)
	if end2 <= end1 {
		t.Errorf("second kernel end %v should be after first %v", end2, end1)
	}
	if s.tail != end2 {
		t.Errorf("tail = %v, want %v", s.tail, end2)
	}
}

func TestLaunchPaysHostCost(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0})
	s := rt.Stream(0)
	c := kernel(rt, gpu.KernelCost{Name: "k", FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: gpu.ClassFMA})
	hostDone, _ := s.Launch(profiler.StageFP, c, 0)
	if hostDone != DefaultCosts().LaunchKernel {
		t.Errorf("hostDone = %v, want %v", hostDone, DefaultCosts().LaunchKernel)
	}
	if got := prof.API(APILaunchKernel); got.Calls != 1 {
		t.Errorf("launch API calls = %d, want 1", got.Calls)
	}
}

func TestSynchronizeWaitsForTail(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0})
	s := rt.Stream(0)
	c := kernel(rt, gpu.KernelCost{Name: "k", FLOPs: 100 * units.GFLOPs, Parallelism: 1 << 30, Class: gpu.ClassFMA})
	_, kEnd := s.Launch(profiler.StageFP, c, 0)
	resume := s.Synchronize(profiler.StageFP, DefaultCosts().LaunchKernel)
	want := kEnd + DefaultCosts().StreamSyncOverhead
	if resume != want {
		t.Errorf("resume = %v, want %v", resume, want)
	}
	st := prof.API(APIStreamSync)
	if st.Calls != 1 {
		t.Fatalf("sync calls = %d, want 1", st.Calls)
	}
	if st.Total < kEnd-DefaultCosts().LaunchKernel {
		t.Errorf("sync blocked time %v should cover the wait", st.Total)
	}
}

func TestSynchronizeIdleStreamIsCheap(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0})
	s := rt.Stream(0)
	resume := s.Synchronize(profiler.StageOther, time.Millisecond)
	if want := time.Millisecond + DefaultCosts().StreamSyncOverhead; resume != want {
		t.Errorf("resume = %v, want %v", resume, want)
	}
}

func TestMemcpyPeerDirect(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0, 1})
	hostDone, end, err := rt.MemcpyPeer(1, 0, 50*units.MB, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hostDone != DefaultCosts().MemcpyAsync {
		t.Errorf("hostDone = %v, want %v", hostDone, DefaultCosts().MemcpyAsync)
	}
	wire := topology.NVLinkLatency + units.TransferTime(50*units.MB, 50*units.GBPerSec)
	if want := hostDone + wire; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	if prof.API(APIMemcpyAsync).Calls != 1 {
		t.Error("memcpy API not recorded")
	}
}

func TestMemcpyPeerStagedTakesTwoHops(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0, 7})
	_, endStaged, err := rt.MemcpyPeer(7, 0, 50*units.MB, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt2, _ := newRuntime(t, []topology.NodeID{0, 1})
	_, endDirect, err := rt2.MemcpyPeer(1, 0, 50*units.MB, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if endStaged <= endDirect {
		t.Errorf("staged copy (%v) should be slower than direct (%v)", endStaged, endDirect)
	}
}

func TestMemcpyHostToDevice(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0})
	_, end, err := rt.MemcpyHostToDevice(0, 16*units.MB, profiler.StageDataLoad, 0)
	if err != nil {
		t.Fatal(err)
	}
	wire := topology.PCIeLatency + units.TransferTime(16*units.MB, topology.PCIeGen3x16BW)
	if want := DefaultCosts().MemcpyAsync + wire; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
}

func TestCommStreamOverlapsCompute(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0})
	cs := rt.Stream(0)
	ns := rt.CommStream(0)
	big := kernel(rt, gpu.KernelCost{Name: "conv", FLOPs: 500 * units.GFLOPs, Parallelism: 1 << 30, Class: gpu.ClassFMA})
	_, computeEnd := cs.Launch(profiler.StageFP, big, 0)
	_, commEnd := ns.Launch(profiler.StageWU, rt.NewKernel("ncclAllReduce", 10*time.Microsecond), 0)
	if commEnd >= computeEnd {
		t.Errorf("comm kernel (%v) should overlap, not queue behind, compute (%v)", commEnd, computeEnd)
	}
}

func TestKernelRecordedWithStageAndTrack(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	prof := profiler.NewDetailed(16)
	rt, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{2}, DefaultCosts(), prof)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Stream(2)
	c := kernel(rt, gpu.KernelCost{Name: "conv2d_fprop", FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: gpu.ClassTensor})
	s.Launch(profiler.StageFP, c, 0)
	var found bool
	for _, iv := range prof.Intervals() {
		if iv.Kind == profiler.KindKernel && iv.Name == "conv2d_fprop" {
			found = true
			if iv.Stage != profiler.StageFP {
				t.Errorf("stage = %v, want FP", iv.Stage)
			}
			if !strings.Contains(iv.Track, "GPU2") {
				t.Errorf("track = %q, want GPU2 track", iv.Track)
			}
		}
	}
	if !found {
		t.Error("kernel interval not recorded")
	}
}

func TestNilProfileIsSafe(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	rt, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{0, 1}, DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Stream(0)
	s.Launch(profiler.StageFP, kernel(rt, gpu.KernelCost{Name: "k", FLOPs: units.GFLOPs, Parallelism: 1 << 20, Class: gpu.ClassFMA}), 0)
	s.Synchronize(profiler.StageFP, 0)
	if _, _, err := rt.MemcpyPeer(1, 0, units.MB, profiler.StageWU, 0, 0); err != nil {
		t.Fatal(err)
	}
}
