package interconnect

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topology"
	"repro/internal/units"
)

// dirKey names one link direction in the reference model below.
type dirKey struct {
	link *topology.Link
	from topology.NodeID
}

// refBook is the closed-form reference for Fabric.Book: a store-and-forward
// path books hop by hop with start = max(ready, free) and the next hop
// ready at this hop's end; a cut-through path books one bottleneck-rate
// window, all hops' latency included, on every hop.
func refBook(free map[dirKey]time.Duration, p topology.Path, size units.Bytes, ready time.Duration) (start, end time.Duration) {
	if p.CutThrough {
		bw := p.Hops[0].Link.BW
		var lat time.Duration
		for _, h := range p.Hops {
			bw = min(bw, h.Link.BW)
			lat += h.Link.Latency
		}
		dur := lat + units.TransferTime(size, bw)
		for i, h := range p.Hops {
			k := dirKey{h.Link, h.From}
			s := max(ready, free[k])
			free[k] = s + dur
			if i == 0 {
				start = s
			}
			end = max(end, s+dur)
		}
		return start, end
	}
	for i, h := range p.Hops {
		k := dirKey{h.Link, h.From}
		s := max(ready, free[k])
		free[k] = s + h.Link.Latency + units.TransferTime(size, h.Link.BW)
		if i == 0 {
			start = s
		}
		ready, end = free[k], free[k]
	}
	return start, end
}

// Book matches the reference on any request sequence over DGX-1's
// store-and-forward routes and DGX-2's cut-through ones.
func TestBookMatchesReference(t *testing.T) {
	for _, top := range []*topology.Topology{topology.DGX1(), topology.DGX2()} {
		gpus := top.GPUs()
		f := func(reqs []struct {
			Src, Dst uint8
			KB       uint16
			ReadyUs  uint16
		}) bool {
			fab := New(top)
			free := map[dirKey]time.Duration{}
			for _, q := range reqs {
				src, dst := gpus[int(q.Src)%len(gpus)], gpus[int(q.Dst)%len(gpus)]
				if src == dst {
					continue
				}
				p, err := top.Route(src, dst, topology.RouteStagedNVLink)
				if err != nil {
					t.Fatal(err)
				}
				size := units.Bytes(q.KB) * units.KB
				ready := time.Duration(q.ReadyUs) * time.Microsecond
				s, e := fab.Book(p, size, ready)
				ws, we := refBook(free, p, size, ready)
				if s != ws || e != we {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	}
}

// Property: booking end times are monotone in request order per path, and
// total busy time on the first-hop direction equals the sum of its
// transfer durations (conservation).
func TestBookConservation(t *testing.T) {
	top := topology.DGX1()
	path, err := top.Route(0, 3, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	f := func(sizesKB []uint16) bool {
		fab := New(top)
		var prev time.Duration
		var wantBusy time.Duration
		for _, kb := range sizesKB {
			size := units.Bytes(kb) * units.KB
			_, end := fab.Book(path, size, 0)
			if end < prev {
				return false
			}
			prev = end
			wantBusy += path.Hops[0].Link.Latency + units.TransferTime(size, path.Hops[0].Link.BW)
		}
		if len(sizesKB) == 0 {
			return true
		}
		return fab.BusyTime(topology.NVLink) == wantBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOccupy(t *testing.T) {
	top := topology.DGX1()
	fab := New(top)
	l := top.DirectLink(0, 1, topology.NVLink)
	s1, e1 := fab.Direction(l, 0).Book(0, 5*time.Millisecond)
	if s1 != 0 || e1 != 5*time.Millisecond {
		t.Errorf("first occupy [%v,%v]", s1, e1)
	}
	// Subsequent traffic on the same direction queues behind it.
	path, _ := top.Route(0, 1, topology.RouteStagedNVLink)
	start, _ := fab.Book(path, units.MB, 0)
	if start != e1 {
		t.Errorf("transfer start = %v, want %v (queued behind occupation)", start, e1)
	}
	// The reverse direction is unaffected.
	rev, _ := top.Route(1, 0, topology.RouteStagedNVLink)
	rstart, _ := fab.Book(rev, units.MB, 0)
	if rstart != 0 {
		t.Errorf("reverse start = %v, want 0", rstart)
	}
}

func TestCutThroughBooking(t *testing.T) {
	top := topology.DGX2()
	fab := New(top)
	p, err := top.Route(0, 9, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CutThrough {
		t.Fatal("DGX-2 path should be cut-through")
	}
	size := 150 * units.MB
	start, end := fab.Book(p, size, 0)
	// Cut-through: one bottleneck-rate pass plus both hops' latency, NOT
	// store-and-forward's two passes.
	want := 2*topology.NVLinkLatency + units.TransferTime(size, 150*units.GBPerSec)
	if start != 0 || end != want {
		t.Errorf("cut-through window [%v,%v], want [0,%v]", start, end, want)
	}
	if snf := OneWayTime(p, size); end >= snf {
		t.Errorf("cut-through (%v) should beat store-and-forward (%v)", end, snf)
	}
	// Both hops are occupied (visible to contention): a second transfer
	// sharing the first hop queues.
	p2, err := top.Route(0, 5, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := fab.Book(p2, size, 0)
	if s2 != end {
		t.Errorf("second transfer start = %v, want %v (queued on shared first hop)", s2, end)
	}
}

func TestStatsSortedAcrossDirections(t *testing.T) {
	top := topology.DGX1()
	fab := New(top)
	for _, pairs := range [][2]topology.NodeID{{3, 0}, {0, 1}, {1, 7}, {0, 2}} {
		p, err := top.Route(pairs[0], pairs[1], topology.RouteStagedNVLink)
		if err != nil {
			t.Fatal(err)
		}
		fab.Book(p, units.MB, 0)
	}
	st := fab.Stats()
	if len(st) < 4 {
		t.Fatalf("stats = %d entries", len(st))
	}
	for i := 1; i < len(st); i++ {
		a, b := st[i-1], st[i]
		if a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Fatalf("stats unsorted at %d: %+v then %+v", i, a, b)
		}
	}
}
