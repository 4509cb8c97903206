package topology

import (
	"testing"

	"repro/internal/units"
)

func TestDGX1Validates(t *testing.T) {
	top := DGX1()
	if err := top.Validate(); err != nil {
		t.Fatalf("DGX1 topology invalid: %v", err)
	}
}

func TestDGX1NodeCounts(t *testing.T) {
	top := DGX1()
	if got := len(top.GPUs()); got != 8 {
		t.Errorf("GPUs = %d, want 8", got)
	}
	cpus := 0
	for _, n := range top.Nodes() {
		if n.Kind == CPU {
			cpus++
		}
	}
	if cpus != 2 {
		t.Errorf("CPUs = %d, want 2", cpus)
	}
}

// The paper states each V100 has 6 NVLink ports, all used.
func TestDGX1AllNVLinkPortsUsed(t *testing.T) {
	top := DGX1()
	for _, g := range top.GPUs() {
		ports := 0
		for _, l := range top.adj[g] {
			if l.Type == NVLink {
				ports += l.Lanes
			}
		}
		if ports != NVLinkPortsPerV100 {
			t.Errorf("GPU%d uses %d NVLink ports, want %d", g, ports, NVLinkPortsPerV100)
		}
	}
}

// Constraints the paper states explicitly about Figure 2.
func TestDGX1PaperConstraints(t *testing.T) {
	top := DGX1()

	// "GPU0 has direct NVLink connections with GPU1, GPU2, GPU3, and GPU6."
	want := []NodeID{1, 2, 3, 6}
	var got []NodeID
	for _, g := range top.GPUs() {
		if top.DirectLink(0, g, NVLink) != nil {
			got = append(got, g)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("GPU0 neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GPU0 neighbors = %v, want %v", got, want)
		}
	}

	// "The BW between GPU0 and GPU1, and GPU0 and GPU2, is twice the BW
	// rate between GPU0 and GPU3."
	bw01 := top.DirectLink(0, 1, NVLink).BW
	bw02 := top.DirectLink(0, 2, NVLink).BW
	bw03 := top.DirectLink(0, 3, NVLink).BW
	if bw01 != 2*bw03 || bw02 != 2*bw03 {
		t.Errorf("bw(0-1)=%v bw(0-2)=%v bw(0-3)=%v; want first two = 2x last", bw01, bw02, bw03)
	}

	// "some GPUs have only one direct connection (e.g. between GPU2 and
	// GPU3)".
	if l := top.DirectLink(2, 3, NVLink); l == nil || l.Lanes != 1 {
		t.Errorf("GPU2-GPU3 should be a single NVLink, got %v", l)
	}

	// "some GPUs may not have a direct connection (e.g. between GPU3 and
	// GPU4)".
	if l := top.DirectLink(3, 4, NVLink); l != nil {
		t.Errorf("GPU3-GPU4 should have no direct NVLink, got %v", l)
	}

	// "GPU1 has a direct NVLink connection with GPU7."
	if l := top.DirectLink(1, 7, NVLink); l == nil {
		t.Error("GPU1-GPU7 should have a direct NVLink")
	}

	// NVLink brick bandwidth: 25 GB/s per direction, 50 for bonded pairs.
	if bw03 != 25*units.GBPerSec {
		t.Errorf("single NVLink BW = %v, want 25GB/s", bw03)
	}
	if bw01 != 50*units.GBPerSec {
		t.Errorf("dual NVLink BW = %v, want 50GB/s", bw01)
	}
}

// "A maximum of one intermediate node (two hops) is required to connect any
// pair of GPUs" — under staged-NVLink routing.
func TestDGX1TwoHopDiameter(t *testing.T) {
	top := DGX1()
	gpus := top.GPUs()
	for _, a := range gpus {
		for _, b := range gpus {
			if a == b {
				continue
			}
			p, err := top.Route(a, b, RouteStagedNVLink)
			if err != nil {
				t.Fatalf("route %d->%d: %v", a, b, err)
			}
			if hops := len(p.Hops); hops > 2 {
				t.Errorf("route %d->%d takes %d hops, want <= 2", a, b, hops)
			}
		}
	}
}

func TestRouteDirectBeatsStaged(t *testing.T) {
	top := DGX1()
	p, err := top.Route(0, 2, RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 1 || p.Hops[0].Link.Type != NVLink {
		t.Errorf("0->2 should be one direct NVLink hop, got %v", p)
	}
}

func TestRouteStagedPicksBestIntermediate(t *testing.T) {
	top := DGX1()
	p, err := top.Route(0, 7, RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 2 {
		t.Fatalf("0->7 should be 2 hops, got %v", p)
	}
	mid := p.Hops[0].To
	// 0-1 (x2) then 1-7 (x2) gives a 50GB/s bottleneck; no intermediate
	// does better.
	if mid != 1 {
		t.Errorf("0->7 staged via GPU%d, want GPU1; path %v", mid, p)
	}
	if got := p.MinBW(); got != float64(50*units.GBPerSec) {
		t.Errorf("0->7 bottleneck = %v, want 50GB/s", units.Bandwidth(got))
	}
}

func TestRoutePCIeFallbackCrossesSockets(t *testing.T) {
	top := DGX1()
	p, err := top.Route(0, 7, RoutePCIeFallback)
	if err != nil {
		t.Fatal(err)
	}
	// GPU0 -> CPU0 -> CPU1 -> GPU7: PCIe, QPI, PCIe.
	if len(p.Hops) != 3 {
		t.Fatalf("0->7 PCIe path = %v, want 3 hops", p)
	}
	if p.Hops[0].Link.Type != PCIe || p.Hops[1].Link.Type != QPI || p.Hops[2].Link.Type != PCIe {
		t.Errorf("0->7 PCIe path types wrong: %v", p)
	}
}

func TestRoutePCIeFallbackSameSocket(t *testing.T) {
	top := DGX1()
	// 1 and 2 are on socket 0 and have no direct NVLink; the PCIe
	// fallback path is GPU1 -> CPU0 -> GPU2.
	if top.DirectLink(1, 2, NVLink) != nil {
		t.Fatal("test assumes 1-2 has no direct NVLink")
	}
	p, err := top.Route(1, 2, RoutePCIeFallback)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 2 {
		t.Fatalf("1->2 PCIe path = %v, want 2 hops", p)
	}
}

func TestRouteSelfErrors(t *testing.T) {
	top := DGX1()
	if _, err := top.Route(0, 0, RouteStagedNVLink); err == nil {
		t.Error("routing to self should error")
	}
}

func TestHostCPU(t *testing.T) {
	top := DGX1()
	for g := 0; g < 4; g++ {
		host, err := top.HostCPU(NodeID(g))
		if err != nil || host != 8 {
			t.Errorf("HostCPU(GPU%d) = %d, %v; want CPU node 8", g, host, err)
		}
	}
	for g := 4; g < 8; g++ {
		host, err := top.HostCPU(NodeID(g))
		if err != nil || host != 9 {
			t.Errorf("HostCPU(GPU%d) = %d, %v; want CPU node 9", g, host, err)
		}
	}
	if _, err := top.HostCPU(8); err == nil {
		t.Error("HostCPU of a CPU should error")
	}
}

func TestBandwidthMatrixSymmetricDiagonalZero(t *testing.T) {
	top := DGX1()
	m, err := top.BandwidthMatrix(RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v, want 0", i, i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix asymmetric at [%d][%d]: %v vs %v", i, j, m[i][j], m[j][i])
			}
		}
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	top := New()
	if err := top.AddNode(Node{ID: 0, Kind: GPU}); err != nil {
		t.Fatal(err)
	}
	if err := top.AddNode(Node{ID: 0, Kind: CPU}); err == nil {
		t.Error("duplicate node ID should error")
	}
}

func TestAddLinkValidation(t *testing.T) {
	top := New()
	if err := top.AddNode(Node{ID: 0, Kind: GPU}); err != nil {
		t.Fatal(err)
	}
	if err := top.AddLink(Link{A: 0, B: 1, Type: NVLink, BW: 1}); err == nil {
		t.Error("link to unknown node should error")
	}
	if err := top.AddNode(Node{ID: 1, Kind: GPU}); err != nil {
		t.Fatal(err)
	}
	if err := top.AddLink(Link{A: 0, B: 0, Type: NVLink, BW: 1}); err == nil {
		t.Error("self link should error")
	}
	if err := top.AddLink(Link{A: 0, B: 1, Type: NVLink, BW: 0}); err == nil {
		t.Error("zero-bandwidth link should error")
	}
}

func TestDescribeMentionsEveryGPU(t *testing.T) {
	s := DGX1().Describe()
	for g := 0; g < 8; g++ {
		name := "GPU" + string(rune('0'+g))
		if !contains(s, name) {
			t.Errorf("Describe() missing %s", name)
		}
	}
	if !contains(s, "NV2") || !contains(s, "NV1") || !contains(s, "PIX") {
		t.Error("Describe() missing adjacency codes")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
