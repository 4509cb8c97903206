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

func newComm(t *testing.T, devs []topology.NodeID) (*Communicator, *profiler.Profile) {
	t.Helper()
	top := topology.DGX1()
	fab := interconnect.New(top)
	prof := profiler.New()
	rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), prof)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(rt, devs, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	return c, prof
}

func gpus(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func TestRingConstructionCounts(t *testing.T) {
	cases := []struct {
		n         int
		wantRings int
		wantBus   units.Bandwidth
	}{
		{2, 2, 50 * units.GBPerSec}, // 0-1 is a bonded dual link: two lane-rings
		{4, 1, 25 * units.GBPerSec}, // 0-1-3-2-0 limited by single links
		{8, 2, 50 * units.GBPerSec}, // two edge-disjoint Hamiltonian rings
	}
	for _, c := range cases {
		comm, _ := newComm(t, gpus(c.n))
		if got := len(comm.rings); got != c.wantRings {
			t.Errorf("%d GPUs: rings = %d, want %d (%v)", c.n, got, c.wantRings, comm.rings)
		}
		if got := comm.BusBW(); got != c.wantBus {
			t.Errorf("%d GPUs: bus BW = %v, want %v", c.n, got, c.wantBus)
		}
	}
}

func TestRingsCoverAllDevicesNVLinkOnly(t *testing.T) {
	comm, _ := newComm(t, gpus(8))
	top := topology.DGX1()
	for _, r := range comm.rings {
		if r.PCIe {
			t.Fatal("8-GPU communicator should not need a PCIe ring")
		}
		if len(r.Order) != 8 {
			t.Fatalf("ring %v does not cover all devices", r)
		}
		seen := map[topology.NodeID]bool{}
		for i, d := range r.Order {
			if seen[d] {
				t.Fatalf("ring %v repeats device %d", r, d)
			}
			seen[d] = true
			next := r.Order[(i+1)%len(r.Order)]
			if top.DirectLink(d, next, topology.NVLink) == nil {
				t.Fatalf("ring hop %d->%d has no NVLink", d, next)
			}
		}
	}
}

func TestRingsAreEdgeDisjoint(t *testing.T) {
	comm, _ := newComm(t, gpus(8))
	rings := comm.rings
	if len(rings) != 2 {
		t.Fatalf("rings = %d, want 2", len(rings))
	}
	type pair struct{ a, b topology.NodeID }
	norm := func(a, b topology.NodeID) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	lanes := map[pair]int{}
	for _, l := range topology.DGX1().Links() {
		if l.Type == topology.NVLink {
			lanes[norm(l.A, l.B)] += l.Lanes
		}
	}
	used := map[pair]int{}
	for _, r := range rings {
		for i := range r.Order {
			p := norm(r.Order[i], r.Order[(i+1)%len(r.Order)])
			used[p]++
		}
	}
	for p, u := range used {
		if u > lanes[p] {
			t.Errorf("edge %v used %d times with only %d lanes", p, u, lanes[p])
		}
	}
}

func TestAllReduceScalesWithSizeAndRanks(t *testing.T) {
	// Larger payload takes longer.
	c8, _ := newComm(t, gpus(8))
	small := c8.AllReduce(profiler.StageWU, 10*units.MB, 0)
	c8b, _ := newComm(t, gpus(8))
	big := c8b.AllReduce(profiler.StageWU, 100*units.MB, 0)
	if big <= small {
		t.Errorf("100MB allreduce (%v) should exceed 10MB (%v)", big, small)
	}
}

func TestAllReduceWireMatchesRingFormula(t *testing.T) {
	c, _ := newComm(t, gpus(4))
	size := 100 * units.MB
	got := c.AllReduce(profiler.StageWU, size, 0)
	n := 4
	wire := units.TransferTime(units.Bytes(float64(size)*2*float64(n-1)/float64(n)), c.BusBW()) +
		time.Duration(2*(n-1))*stepLatency
	// End = host launch + kernel overhead + wire.
	want := cuda.DefaultCosts().LaunchKernel + kernelOverhead + wire
	if got != want {
		t.Errorf("allreduce end = %v, want %v", got, want)
	}
}

func TestSingleGPUCollectiveStillCosts(t *testing.T) {
	c, _ := newComm(t, []topology.NodeID{0})
	end := c.AllReduce(profiler.StageWU, 100*units.MB, 0)
	if end <= 0 {
		t.Error("single-GPU NCCL collective should still take time (Table II)")
	}
	// But it must be far cheaper than a multi-GPU one.
	c8, _ := newComm(t, gpus(8))
	end8 := c8.AllReduce(profiler.StageWU, 100*units.MB, 0)
	if end >= end8 {
		t.Errorf("1-GPU (%v) should be cheaper than 8-GPU (%v)", end, end8)
	}
}

func TestBroadcastCheaperThanAllReduce(t *testing.T) {
	a, _ := newComm(t, gpus(8))
	ar := a.AllReduce(profiler.StageWU, 100*units.MB, 0)
	b, _ := newComm(t, gpus(8))
	bc := b.Broadcast(profiler.StageWU, 100*units.MB, 0)
	if bc >= ar {
		t.Errorf("broadcast (%v) should be cheaper than allreduce (%v)", bc, ar)
	}
}

func TestCollectivesSerializeOnCommStream(t *testing.T) {
	c, _ := newComm(t, gpus(4))
	e1 := c.AllReduce(profiler.StageWU, 50*units.MB, 0)
	e2 := c.AllReduce(profiler.StageWU, 50*units.MB, 0)
	if e2 <= e1 {
		t.Errorf("second collective (%v) should queue after first (%v)", e2, e1)
	}
}

func TestCollectiveWaitsForReady(t *testing.T) {
	c, _ := newComm(t, gpus(4))
	ready := 5 * time.Millisecond
	end := c.AllReduce(profiler.StageWU, units.MB, ready)
	if end <= ready {
		t.Errorf("collective ended %v before data ready %v", end, ready)
	}
}

func TestKernelsRecorded(t *testing.T) {
	c, prof := newComm(t, gpus(4))
	c.AllReduce(profiler.StageWU, units.MB, 0)
	c.Broadcast(profiler.StageWU, units.MB, 0)
	if prof.Kernel(KernelAllReduce).Calls != 4 {
		t.Errorf("allreduce kernels = %d, want 4 (one per rank)", prof.Kernel(KernelAllReduce).Calls)
	}
	if prof.Kernel(KernelBroadcast).Calls != 4 {
		t.Errorf("broadcast kernels = %d, want 4", prof.Kernel(KernelBroadcast).Calls)
	}
	if prof.API(cuda.APILaunchKernel).Calls != 8 {
		t.Errorf("launches = %d, want 8", prof.API(cuda.APILaunchKernel).Calls)
	}
}

func TestReduceScatterAllGatherCheaperThanAllReduce(t *testing.T) {
	a, _ := newComm(t, gpus(8))
	ar := a.AllReduce(profiler.StageWU, 64*units.MB, 0)
	rs, _ := newComm(t, gpus(8))
	r := rs.ReduceScatter(profiler.StageWU, 64*units.MB, 0)
	ag, _ := newComm(t, gpus(8))
	g := ag.AllGather(profiler.StageWU, 64*units.MB, 0)
	if r >= ar || g >= ar {
		t.Errorf("RS (%v) and AG (%v) should each be cheaper than AR (%v)", r, g, ar)
	}
}

func TestNewRejectsEmptyAndUnmanaged(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	rt, err := cuda.NewRuntime(fab, gpu.V100(), gpus(2), cuda.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rt, nil, Selection{}); err == nil {
		t.Error("empty device list should error")
	}
	if _, err := New(rt, []topology.NodeID{5}, Selection{}); err == nil {
		t.Error("unmanaged device should error")
	}
}

func TestSetupCostExposed(t *testing.T) {
	c, _ := newComm(t, gpus(2))
	if c.SetupCost() != setupCost {
		t.Error("setup cost mismatch")
	}
	if c.Size() != 2 {
		t.Error("size mismatch")
	}
}

// The Pascal DGX-1's 4-port mesh must still yield NVLink rings (the quad
// ring and an 8-GPU Hamiltonian cycle exist in that wiring).
func TestPascalRings(t *testing.T) {
	top := topology.DGX1Pascal()
	r4 := BuildRings(top, gpus(4))
	if len(r4) == 0 {
		t.Fatal("no 4-GPU ring on Pascal")
	}
	r8 := BuildRings(top, gpus(8))
	if len(r8) == 0 {
		t.Fatal("no 8-GPU ring on Pascal")
	}
	for _, r := range r8 {
		if len(r.Order) != 8 || r.PCIe {
			t.Fatalf("bad Pascal ring %v", r)
		}
	}
	// Pascal NVLink 1.0: 20 GB/s lanes.
	if r8[0].LaneBW != 20*units.GBPerSec {
		t.Errorf("Pascal lane BW = %v, want 20GB/s", r8[0].LaneBW)
	}
}
