package topology

import "testing"

// Path invariants that must hold for every GPU pair under every policy on
// every topology variant: hops connect end to end, the path starts and
// ends at the requested nodes, no node repeats, and NVLink-policy paths
// never exceed two hops when any NVLink exists.
func TestRouteInvariantsAcrossVariants(t *testing.T) {
	variants := map[string]*Topology{
		"dgx1":      DGX1(),
		"scaled2x":  DGX1Scaled(2),
		"pcie-only": DGX1PCIeOnly(),
		"degraded":  DGX1Faulted(DGX1FaultSpec{FailedNVLinks: [][2]NodeID{{0, 1}, {3, 5}}}),
	}
	for name, top := range variants {
		if err := top.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gpus := top.GPUs()
		for _, policy := range []RoutePolicy{RouteStagedNVLink, RoutePCIeFallback} {
			for _, a := range gpus {
				for _, b := range gpus {
					if a == b {
						continue
					}
					p, err := top.Route(a, b, policy)
					if err != nil {
						t.Fatalf("%s policy %d: route %d->%d: %v", name, policy, a, b, err)
					}
					if dst := p.Hops[len(p.Hops)-1].To; p.Src() != a || dst != b {
						t.Fatalf("%s: path endpoints %d->%d for request %d->%d", name, p.Src(), dst, a, b)
					}
					seen := map[NodeID]bool{a: true}
					at := a
					for _, h := range p.Hops {
						if h.From != at {
							t.Fatalf("%s: disconnected path %v", name, p)
						}
						if h.Link.Other(h.From) != h.To {
							t.Fatalf("%s: hop link does not connect %d->%d", name, h.From, h.To)
						}
						if seen[h.To] {
							t.Fatalf("%s: path revisits node %d: %v", name, h.To, p)
						}
						seen[h.To] = true
						at = h.To
					}
					if p.MinBW() <= 0 {
						t.Fatalf("%s: non-positive bottleneck on %v", name, p)
					}
					if len(p.Hops) > 3 {
						t.Fatalf("%s: path too long: %v", name, p)
					}
				}
			}
		}
	}
}

// The degraded builder removes exactly the requested links and nothing
// else.
func TestDegradedRemovesOnlyRequested(t *testing.T) {
	full := DGX1()
	deg := DGX1Faulted(DGX1FaultSpec{FailedNVLinks: [][2]NodeID{{0, 1}}})
	if deg.DirectLink(0, 1, NVLink) != nil {
		t.Error("failed link still present")
	}
	fullNV, degNV := 0, 0
	for _, l := range full.Links() {
		if l.Type == NVLink {
			fullNV++
		}
	}
	for _, l := range deg.Links() {
		if l.Type == NVLink {
			degNV++
		}
	}
	if degNV != fullNV-1 {
		t.Errorf("degraded NVLink count %d, want %d", degNV, fullNV-1)
	}
	// PCIe/QPI untouched.
	if len(deg.Links())-degNV != len(full.Links())-fullNV {
		t.Error("degradation touched PCIe/QPI links")
	}
}

func TestScaledBandwidth(t *testing.T) {
	base := DGX1().DirectLink(0, 3, NVLink).BW
	twice := DGX1Scaled(2).DirectLink(0, 3, NVLink).BW
	if twice != 2*base {
		t.Errorf("2x scale: %v vs base %v", twice, base)
	}
}
