package cuda

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestWaitEventRaisesTail(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0})
	s := rt.Stream(0, "c")
	s.WaitEvent(5 * time.Millisecond)
	if s.Tail() != 5*time.Millisecond {
		t.Errorf("tail = %v", s.Tail())
	}
	// A later, smaller wait must not lower the tail.
	s.WaitEvent(time.Millisecond)
	if s.Tail() != 5*time.Millisecond {
		t.Errorf("tail lowered to %v", s.Tail())
	}
	// The next kernel starts no earlier than the event.
	c := kernel(rt, gpu.KernelCost{Name: "k", FLOPs: units.GFLOPs, Parallelism: 1 << 20, Class: gpu.ClassFMA})
	_, end := s.Launch(profiler.StageFP, c, 0)
	if end <= 5*time.Millisecond {
		t.Errorf("kernel ended %v, before the awaited event", end)
	}
}

func TestExtendOccupiesUntil(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0})
	s := rt.CommStream(0, "nccl")
	end := s.Extend(profiler.StageWU, rt.NewKernel("collective", 0), time.Millisecond, 3*time.Millisecond)
	if end != 3*time.Millisecond {
		t.Errorf("end = %v", end)
	}
	if s.Tail() != 3*time.Millisecond {
		t.Errorf("tail = %v", s.Tail())
	}
	if prof.Kernel("collective").Calls != 1 {
		t.Error("extend not recorded")
	}
	// Extending to a time already past is a zero-length occupation.
	end2 := s.Extend(profiler.StageWU, rt.NewKernel("collective", 0), 0, time.Millisecond)
	if end2 != 3*time.Millisecond {
		t.Errorf("backward extend end = %v, want tail %v", end2, 3*time.Millisecond)
	}
}

func TestHostWaitRecordsBlockedTime(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0})
	resume := rt.HostWait(0, profiler.StageWU, time.Millisecond, 10*time.Millisecond)
	if want := 10*time.Millisecond + DefaultCosts().StreamSyncOverhead; resume != want {
		t.Errorf("resume = %v, want %v", resume, want)
	}
	st := prof.API(APIStreamSync)
	if st.Calls != 1 || st.Total < 9*time.Millisecond {
		t.Errorf("sync stat = %+v", st)
	}
	// Target already past: only the fixed overhead.
	resume2 := rt.HostWait(0, profiler.StageWU, resume, resume-time.Millisecond)
	if want := resume + DefaultCosts().StreamSyncOverhead; resume2 != want {
		t.Errorf("past-target resume = %v, want %v", resume2, want)
	}
}

func TestEngineThreadSeparateFromLaunchThread(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0, 1})
	s := rt.Stream(0, "compute")
	// Saturate the launch thread with many launches.
	c := kernel(rt, gpu.KernelCost{Name: "k", FLOPs: units.KFLOPs, Parallelism: 1 << 10, Class: gpu.ClassFMA})
	host := time.Duration(0)
	for i := 0; i < 100; i++ {
		host, _ = s.Launch(profiler.StageFP, c, host)
	}
	// A peer copy issued at t=0 must not queue behind those launches: it
	// runs on the engine thread.
	hostDone, _, err := rt.MemcpyPeer(1, 0, units.MB, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hostDone > 2*DefaultCosts().MemcpyAsync {
		t.Errorf("memcpy issue at %v queued behind the launch loop (%v)", hostDone, host)
	}
}

func TestDMASerializesFanOut(t *testing.T) {
	// Two copies out of GPU0 to different peers use distinct links but
	// share copy engines: with 2 engines, a third concurrent copy queues.
	rt, _ := newRuntime(t, []topology.NodeID{0, 1, 2, 3})
	size := 100 * units.MB
	_, e1, err := rt.MemcpyPeer(1, 0, size, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := rt.MemcpyPeer(2, 0, size, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, e3, err := rt.MemcpyPeer(3, 0, size, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First two run concurrently on the two engines (similar end times);
	// the third (to GPU3, also the slowest link) lands later than a pure
	// wire-time schedule would allow.
	if e2 > e1+time.Millisecond+DefaultCosts().MemcpyAsync {
		t.Errorf("second copy (%v) should overlap first (%v)", e2, e1)
	}
	wireOnly := topology.NVLinkLatency + units.TransferTime(size, 25*units.GBPerSec)
	if e3 <= wireOnly {
		t.Errorf("third copy (%v) should queue on a busy engine (wire alone %v)", e3, wireOnly)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	eng := sim.NewEngine()
	fab := interconnect.New(eng, topology.DGX1())
	rt, err := NewRuntime(fab, gpu.V100(), []topology.NodeID{0}, DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Fabric() != fab {
		t.Error("fabric accessor wrong")
	}
	if rt.Profile() != nil {
		t.Error("nil profile expected")
	}
	if rt.Costs() != DefaultCosts() {
		t.Error("costs accessor wrong")
	}
	if _, err := rt.Route(0, 1); err != nil {
		t.Error("route failed")
	}
	s := rt.Stream(0, "x")
	if s.Device().ID != 0 {
		t.Error("stream device wrong")
	}
}

func TestMemcpyDeviceToHost(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0})
	_, end, err := rt.MemcpyDeviceToHost(0, 16*units.MB, profiler.StageWU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wire := topology.PCIeLatency + units.TransferTime(16*units.MB, topology.PCIeGen3x16BW)
	if want := DefaultCosts().MemcpyAsync + wire; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	if prof.Transfer("memcpyDtoH 0->").Calls != 1 {
		t.Error("DtoH transfer not recorded")
	}
}

func TestCPUWorkSerializes(t *testing.T) {
	rt, prof := newRuntime(t, []topology.NodeID{0})
	_, e1 := rt.CPUWork("CPU/kvstore", profiler.StageWU, 0, time.Millisecond)
	s2, e2 := rt.CPUWork("CPU/kvstore", profiler.StageWU, 0, time.Millisecond)
	if e1 != time.Millisecond || s2 != e1 || e2 != 2*time.Millisecond {
		t.Errorf("CPU work windows [%v] [%v,%v]", e1, s2, e2)
	}
	// Distinct resources do not contend.
	s3, _ := rt.CPUWork("CPU/other", profiler.StageWU, 0, time.Millisecond)
	if s3 != 0 {
		t.Errorf("independent CPU resource start = %v, want 0", s3)
	}
	_ = prof
}

func TestDeviceAccessor(t *testing.T) {
	rt, _ := newRuntime(t, []topology.NodeID{0, 3})
	if rt.Device(3) == nil || rt.Device(3).ID != 3 {
		t.Error("device accessor wrong")
	}
	if rt.Device(5) != nil {
		t.Error("unmanaged device should be nil")
	}
}
