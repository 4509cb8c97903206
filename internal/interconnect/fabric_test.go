package interconnect

import (
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/units"
)

func dgx1Fabric(t *testing.T) *Fabric {
	t.Helper()
	top := topology.DGX1()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(top)
}

func route(t *testing.T, f *Fabric, a, b topology.NodeID) topology.Path {
	t.Helper()
	p, err := f.Topology().Route(a, b, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleHopTransferTime(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 0, 1) // dual NVLink, 50 GB/s
	start, end := f.Book(p, 50*units.MB, 0)
	if start != 0 {
		t.Errorf("start = %v, want 0", start)
	}
	want := topology.NVLinkLatency + units.TransferTime(50*units.MB, 50*units.GBPerSec)
	if end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
}

func TestTwoHopStoreAndForwardDoublesTime(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 0, 7) // 0 -> 1 -> 7, both dual links
	if len(p.Hops) != 2 {
		t.Fatalf("expected 2 hops, got %v", p)
	}
	_, end := f.Book(p, 100*units.MB, 0)
	oneHop := topology.NVLinkLatency + units.TransferTime(100*units.MB, 50*units.GBPerSec)
	if end != 2*oneHop {
		t.Errorf("2-hop end = %v, want %v (store-and-forward)", end, 2*oneHop)
	}
}

func TestContentionSerializesSameDirection(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 0, 3) // single NVLink, 25 GB/s
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		_, e := f.Book(p, 25*units.MB, 0)
		ends = append(ends, e)
	}
	one := topology.NVLinkLatency + units.TransferTime(25*units.MB, 25*units.GBPerSec)
	if ends[0] != one || ends[1] != 2*one {
		t.Errorf("ends = %v, want [%v %v]", ends, one, 2*one)
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	f := dgx1Fabric(t)
	_, endFwd := f.Book(route(t, f, 0, 3), 25*units.MB, 0)
	_, endRev := f.Book(route(t, f, 3, 0), 25*units.MB, 0)
	one := topology.NVLinkLatency + units.TransferTime(25*units.MB, 25*units.GBPerSec)
	if endFwd != one || endRev != one {
		t.Errorf("full-duplex violated: fwd=%v rev=%v want both %v", endFwd, endRev, one)
	}
}

func TestBookDelaysEligibility(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 0, 1)
	if start, _ := f.Book(p, units.MB, 10*time.Millisecond); start != 10*time.Millisecond {
		t.Errorf("start = %v, want 10ms", start)
	}
}

func TestZeroSizeTransferPaysLatency(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 0, 1)
	if _, end := f.Book(p, 0, 0); end != topology.NVLinkLatency {
		t.Errorf("zero-size end = %v, want link latency %v", end, topology.NVLinkLatency)
	}
}

func TestPCIePathCrossSocket(t *testing.T) {
	top := topology.DGX1()
	f := New(top)
	p, err := top.Route(0, 4, topology.RoutePCIeFallback)
	if err != nil {
		t.Fatal(err)
	}
	_, end := f.Book(p, 160*units.MB, 0)
	want := OneWayTime(p, 160*units.MB)
	if end != want {
		t.Errorf("PCIe path end = %v, want %v", end, want)
	}
	// The PCIe route must be slower than any NVLink route of the same size.
	nvPath, err := top.Route(0, 6, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	if nv := OneWayTime(nvPath, 160*units.MB); nv >= want {
		t.Errorf("NVLink route (%v) should beat PCIe route (%v)", nv, want)
	}
}

func TestOneWayTimeMatchesBookedUnloaded(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 3, 4) // no direct link: staged via an intermediate
	if len(p.Hops) != 2 {
		t.Fatalf("3->4 should be staged, got %v", p)
	}
	if _, end := f.Book(p, 64*units.MB, 0); end != OneWayTime(p, 64*units.MB) {
		t.Errorf("booked %v != analytic %v", end, OneWayTime(p, 64*units.MB))
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := dgx1Fabric(t)
	p := route(t, f, 0, 1)
	f.Book(p, units.MB, 0)
	f.Book(p, units.MB, 0)
	st := f.Stats()
	if len(st) != 1 {
		t.Fatalf("stats entries = %d, want 1", len(st))
	}
	if st[0].Requests != 2 {
		t.Errorf("requests = %d, want 2", st[0].Requests)
	}
	if st[0].From != 0 || st[0].To != 1 {
		t.Errorf("direction = %d->%d, want 0->1", st[0].From, st[0].To)
	}
	if f.BusyTime(topology.NVLink) != st[0].Busy {
		t.Error("BusyTime(NVLink) should equal the only direction's busy time")
	}
	if f.BusyTime(topology.PCIe) != 0 {
		t.Error("PCIe saw no traffic")
	}
}

// Fabrics built over one shared topology book independently: traffic on
// one leaves the other's link directions idle.
func TestFabricsShareNoBookingState(t *testing.T) {
	top := topology.DGX1()
	busy, idle := New(top), New(top)
	p, err := top.Route(0, 1, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	_, end := busy.Book(p, 50*units.MB, 0)
	if st := idle.Stats(); len(st) != 0 {
		t.Errorf("untouched fabric reports traffic: %+v", st)
	}
	if idle.BusyTime(topology.NVLink) != 0 {
		t.Errorf("untouched fabric NVLink busy = %v, want 0", idle.BusyTime(topology.NVLink))
	}
	if start, e := idle.Book(p, 50*units.MB, 0); start != 0 || e != end {
		t.Errorf("same transfer on the other fabric [%v,%v], want [0,%v]", start, e, end)
	}
}

// Direction hands out the very resource Book and Occupy queue on, one
// per link direction.
func TestDirectionIsTheBookedResource(t *testing.T) {
	top := topology.DGX1()
	f := New(top)
	l := top.DirectLink(0, 3, topology.NVLink)
	fwd := f.Direction(l, 0)
	if f.Direction(l, 0) != fwd {
		t.Fatal("Direction built a second resource for the same direction")
	}
	rev := f.Direction(l, 3)
	if rev == fwd {
		t.Error("the reverse direction shares the forward direction's resource")
	}
	_, end := f.Book(route(t, f, 0, 3), 25*units.MB, 0)
	if fwd.Requests() != 1 || fwd.FreeAt() != end {
		t.Errorf("forward direction: %d requests, free at %v; want 1, %v", fwd.Requests(), fwd.FreeAt(), end)
	}
	if rev.Requests() != 0 || rev.FreeAt() != 0 {
		t.Errorf("reverse direction booked: %d requests, free at %v", rev.Requests(), rev.FreeAt())
	}
}

func TestEmptyPathPanics(t *testing.T) {
	f := dgx1Fabric(t)
	defer func() {
		if recover() == nil {
			t.Error("empty path should panic")
		}
	}()
	f.Book(topology.Path{}, units.MB, 0)
}
