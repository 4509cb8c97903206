package topology

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/units"
)

// DGX-1 (Volta) interconnect parameters. Each NVLink 2.0 brick carries
// 25 GB/s per direction; bonded pairs provide 50 GB/s (paper §IV-A).
const (
	NVLinkBrickBW      = 25 * units.GBPerSec
	NVLinkLatency      = 1300 * time.Nanosecond // one-way, small-message
	PCIeGen3x16BW      = 16 * units.GBPerSec
	PCIeLatency        = 2500 * time.Nanosecond
	QPIBW              = 19 * units.GBPerSec
	QPILatency         = 500 * time.Nanosecond
	NVLinkPortsPerV100 = 6
)

// dgx1NVLinks is the Volta DGX-1 hybrid cube-mesh. The wiring satisfies
// every constraint the paper states about its Figure 2: GPU0's NVLink
// neighbors are exactly {1,2,3,6}; 0-1 and 0-2 are bonded dual links while
// 0-3 and 2-3 are single; 3-4 has no direct connection; 1-7 is direct;
// every V100 uses exactly its 6 NVLink ports; and any GPU pair is within
// two hops. It additionally provides the ring structure NCCL exploits: a
// lane-disjoint NVLink ring within the first quad (0-1-3-2-0) and two
// edge-disjoint Hamiltonian rings over all eight GPUs
// (0-1-5-4-6-7-3-2-0 and 0-6-2-4-5-3-7-1-0).
var dgx1NVLinks = []struct {
	a, b  NodeID
	lanes int
}{
	// Quad {0,1,2,3}.
	{0, 1, 2}, {0, 2, 2}, {0, 3, 1}, {1, 3, 1}, {2, 3, 1},
	// Quad {4,5,6,7}.
	{4, 5, 2}, {4, 6, 2}, {4, 7, 1}, {5, 7, 1}, {6, 7, 1},
	// Cross links.
	{0, 6, 1}, {1, 7, 2}, {1, 5, 1}, {2, 4, 1}, {2, 6, 2}, {3, 5, 2}, {3, 7, 1},
}

// DGX1 builds the Volta-based DGX-1 topology: 8 V100 GPUs, 2 Xeon CPUs,
// NVLink cube-mesh, per-GPU PCIe, and a QPI link between the sockets.
func DGX1() *Topology {
	return DGX1Scaled(1)
}

// DGX1Scaled builds the DGX-1 with every NVLink's bandwidth multiplied by
// nvlinkScale — the "what if the interconnect were faster?" knob behind
// the paper's insight that raising bandwidth alone cannot remove the
// communication bottleneck. A scale <= 0 removes NVLink entirely,
// producing the PCIe-only machine (the baseline the NVLink-vs-PCIe
// comparisons in the paper's related work use).
func DGX1Scaled(nvlinkScale float64) *Topology {
	return dgx1Build(nvlinkScale, DGX1FaultSpec{})
}

// DGX1PCIeOnly builds the DGX-1 chassis without NVLink: all GPU-to-GPU
// traffic crosses the PCIe root complexes (and QPI across sockets).
func DGX1PCIeOnly() *Topology {
	return DGX1Scaled(0)
}

// DGX1FaultSpec parameterizes the degraded-fabric DGX-1 builder. All
// fields describe departures from the healthy machine; the zero value
// builds the ordinary DGX1().
type DGX1FaultSpec struct {
	// FailedNVLinks lists NVLink connections removed entirely (failed
	// bricks). Pair order does not matter.
	FailedNVLinks [][2]NodeID
	// DegradedNVLinks scales the bandwidth of specific surviving NVLink
	// connections: the value is the remaining fraction in (0, 1]. Keys are
	// canonicalized internally, so either pair order works.
	DegradedNVLinks map[[2]NodeID]float64
	// PCIeScale is the remaining fraction of every PCIe link's bandwidth
	// (host contention on the root complexes). <= 0 or >= 1 leaves PCIe
	// at full speed.
	PCIeScale float64
}

// DGX1Faulted builds the DGX-1 with the fault spec applied: failed bricks
// are absent from the link set (so ring construction and routing see the
// degraded graph, not a zero-bandwidth edge), degraded links keep their
// lanes but lose bandwidth, and PCIe contention shrinks every host link.
func DGX1Faulted(f DGX1FaultSpec) *Topology {
	return dgx1Build(1, f)
}

// dgx1Build is the one DGX-1 chassis builder behind DGX1, DGX1Scaled and
// DGX1Faulted.
func dgx1Build(nvlinkScale float64, f DGX1FaultSpec) *Topology {
	bad := make(map[pairKey]bool, len(f.FailedNVLinks))
	for _, p := range f.FailedNVLinks {
		bad[normPair(p[0], p[1])] = true
	}
	slow := make(map[pairKey]float64, len(f.DegradedNVLinks))
	for p, frac := range f.DegradedNVLinks {
		slow[normPair(p[0], p[1])] = frac
	}
	pcieScale := f.PCIeScale
	if pcieScale <= 0 || pcieScale >= 1 {
		pcieScale = 1
	}

	t := New()
	const nGPU = 8
	for i := 0; i < nGPU; i++ {
		socket := 0
		if i >= 4 {
			socket = 1
		}
		mustAdd(t.AddNode(Node{ID: NodeID(i), Kind: GPU, Name: fmt.Sprintf("GPU%d", i), Socket: socket}))
	}
	cpu0 := NodeID(nGPU)
	cpu1 := NodeID(nGPU + 1)
	mustAdd(t.AddNode(Node{ID: cpu0, Kind: CPU, Name: "CPU0", Socket: 0}))
	mustAdd(t.AddNode(Node{ID: cpu1, Kind: CPU, Name: "CPU1", Socket: 1}))

	if nvlinkScale > 0 {
		for _, e := range dgx1NVLinks {
			if bad[normPair(e.a, e.b)] {
				continue
			}
			bw := float64(e.lanes) * nvlinkScale * float64(NVLinkBrickBW)
			if frac, ok := slow[normPair(e.a, e.b)]; ok && frac > 0 && frac < 1 {
				bw *= frac
			}
			mustAdd(t.AddLink(Link{
				A: e.a, B: e.b, Type: NVLink, Lanes: e.lanes,
				BW:      units.Bandwidth(bw),
				Latency: NVLinkLatency,
			}))
		}
	}
	for i := 0; i < nGPU; i++ {
		host := cpu0
		if i >= 4 {
			host = cpu1
		}
		mustAdd(t.AddLink(Link{
			A: NodeID(i), B: host, Type: PCIe, Lanes: 1,
			BW: units.Bandwidth(pcieScale * float64(PCIeGen3x16BW)), Latency: PCIeLatency,
		}))
	}
	mustAdd(t.AddLink(Link{A: cpu0, B: cpu1, Type: QPI, Lanes: 1, BW: QPIBW, Latency: QPILatency}))
	return t
}

// DGX1HasNVLink reports whether the healthy Volta DGX-1 wires a direct
// NVLink connection between the two GPUs — the existence check fault
// plans use to reject typo'd link references before building anything.
func DGX1HasNVLink(a, b NodeID) bool {
	p := normPair(a, b)
	for _, e := range dgx1NVLinks {
		if normPair(e.a, e.b) == p {
			return true
		}
	}
	return false
}

// pairKey is an unordered GPU pair.
type pairKey struct{ a, b NodeID }

// normPair canonicalizes an unordered pair.
func normPair(a, b NodeID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// DGX1Pascal builds the first-generation (Pascal) DGX-1 interconnect: the
// same chassis but NVLink 1.0 bricks at 20 GB/s and only 4 ports per P100,
// so the cube-mesh has no bonded pairs and fewer cross links. The paper's
// related work (Gawande et al.) benchmarks this machine; comparing it with
// the Volta system isolates what the extra links and bandwidth buy.
func DGX1Pascal() *Topology {
	const pascalBrickBW = 20 * units.GBPerSec
	links := []struct{ a, b NodeID }{
		// Hybrid cube-mesh with 4 ports per GPU: two quad rings plus a
		// full set of cross links.
		{0, 1}, {0, 3}, {1, 2}, {2, 3},
		{4, 5}, {4, 7}, {5, 6}, {6, 7},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
		{0, 2}, {1, 3}, {4, 6}, {5, 7},
	}
	t := New()
	const nGPU = 8
	for i := 0; i < nGPU; i++ {
		socket := 0
		if i >= 4 {
			socket = 1
		}
		mustAdd(t.AddNode(Node{ID: NodeID(i), Kind: GPU, Name: fmt.Sprintf("GPU%d", i), Socket: socket}))
	}
	cpu0, cpu1 := NodeID(nGPU), NodeID(nGPU+1)
	mustAdd(t.AddNode(Node{ID: cpu0, Kind: CPU, Name: "CPU0", Socket: 0}))
	mustAdd(t.AddNode(Node{ID: cpu1, Kind: CPU, Name: "CPU1", Socket: 1}))
	for _, e := range links {
		mustAdd(t.AddLink(Link{A: e.a, B: e.b, Type: NVLink, Lanes: 1, BW: pascalBrickBW, Latency: NVLinkLatency}))
	}
	for i := 0; i < nGPU; i++ {
		host := cpu0
		if i >= 4 {
			host = cpu1
		}
		mustAdd(t.AddLink(Link{A: NodeID(i), B: host, Type: PCIe, Lanes: 1, BW: PCIeGen3x16BW, Latency: PCIeLatency}))
	}
	mustAdd(t.AddLink(Link{A: cpu0, B: cpu1, Type: QPI, Lanes: 1, BW: QPIBW, Latency: QPILatency}))
	return t
}

// DGX2 builds the NVSwitch generation that followed the paper (16 V100s,
// every GPU attached to a cut-through switch fabric by six bonded NVLink
// bricks = 150 GB/s per direction, uniform all-to-all bandwidth). It is
// the machine that removed the asymmetric-topology effects — staged
// transfers, idle GPUs on slow pairs — the paper diagnosed; the
// reproduction uses it as the "what the findings called for" ablation.
func DGX2() *Topology {
	return nvswitchBuild(16, NVLinkPortsPerV100, NVLinkBrickBW)
}

// DGXA100 builds the Ampere-generation NVSwitch box: 8 A100s, each wired
// to the switch plane by 12 third-generation NVLink bricks (25 GB/s per
// brick per direction = 300 GB/s per GPU).
func DGXA100() *Topology {
	return nvswitchBuild(8, 12, NVLinkBrickBW)
}

// DGXH100 builds the Hopper-generation NVSwitch box: 8 H100s with 18
// fourth-generation NVLink bricks each (25 GB/s per brick per direction =
// 450 GB/s per GPU).
func DGXH100() *Topology {
	return nvswitchBuild(8, 18, NVLinkBrickBW)
}

// nvswitchBuild is the shared NVSwitch-chassis builder: nGPU GPUs split
// across two sockets, each attached to a single cut-through switch node by
// `lanes` NVLink bricks of brickBW each, plus per-GPU PCIe and QPI. Real
// machines stripe across 6–12 physical switch chips; because every chip
// is a full crossbar, a single switch node with the aggregate per-GPU
// bandwidth is an exact model for bandwidth and one-hop latency.
func nvswitchBuild(nGPU, lanes int, brickBW units.Bandwidth) *Topology {
	t := New()
	t.NVLinkPorts = lanes
	half := nGPU / 2
	for i := 0; i < nGPU; i++ {
		socket := 0
		if i >= half {
			socket = 1
		}
		mustAdd(t.AddNode(Node{ID: NodeID(i), Kind: GPU, Name: fmt.Sprintf("GPU%d", i), Socket: socket}))
	}
	cpu0, cpu1 := NodeID(nGPU), NodeID(nGPU+1)
	sw := NodeID(nGPU + 2)
	mustAdd(t.AddNode(Node{ID: cpu0, Kind: CPU, Name: "CPU0", Socket: 0}))
	mustAdd(t.AddNode(Node{ID: cpu1, Kind: CPU, Name: "CPU1", Socket: 1}))
	mustAdd(t.AddNode(Node{ID: sw, Kind: Switch, Name: "NVSwitch", Socket: 0}))
	for i := 0; i < nGPU; i++ {
		mustAdd(t.AddLink(Link{
			A: NodeID(i), B: sw, Type: NVLink, Lanes: lanes,
			BW: units.Bandwidth(lanes) * brickBW, Latency: NVLinkLatency,
		}))
		host := cpu0
		if i >= half {
			host = cpu1
		}
		mustAdd(t.AddLink(Link{A: NodeID(i), B: host, Type: PCIe, Lanes: 1, BW: PCIeGen3x16BW, Latency: PCIeLatency}))
	}
	mustAdd(t.AddLink(Link{A: cpu0, B: cpu1, Type: QPI, Lanes: 1, BW: QPIBW, Latency: QPILatency}))
	return t
}

// mustAdd panics on construction errors: the DGX-1 builder is static data,
// so any failure is a programming error, not a runtime condition.
func mustAdd(err error) {
	if err != nil {
		panic(err)
	}
}

// Validate checks structural invariants: every GPU has a host CPU and a
// PCIe link, NVLink port budgets are respected, and every GPU pair is
// reachable within two NVLink hops or over PCIe.
func (t *Topology) Validate() error {
	gpus := t.GPUs()
	if len(gpus) == 0 {
		return fmt.Errorf("topology: no GPUs")
	}
	for _, g := range gpus {
		if _, err := t.HostCPU(g); err != nil {
			return err
		}
		host, _ := t.HostCPU(g)
		if t.DirectLink(g, host, PCIe) == nil {
			return fmt.Errorf("topology: GPU %d missing PCIe link to host CPU %d", g, host)
		}
		budget := t.NVLinkPorts
		if budget <= 0 {
			budget = NVLinkPortsPerV100
		}
		ports := 0
		for _, l := range t.adj[g] {
			if l.Type == NVLink {
				ports += l.Lanes
			}
		}
		if ports > budget {
			return fmt.Errorf("topology: GPU %d uses %d NVLink ports, budget is %d", g, ports, budget)
		}
	}
	for _, a := range gpus {
		for _, b := range gpus {
			if a >= b {
				continue
			}
			if _, err := t.Route(a, b, RouteStagedNVLink); err != nil {
				return fmt.Errorf("topology: no route %d -> %d: %w", a, b, err)
			}
		}
	}
	return nil
}

// BandwidthMatrix returns, for each ordered GPU pair, the bottleneck
// bandwidth of the routed path under the policy (0 on the diagonal).
func (t *Topology) BandwidthMatrix(policy RoutePolicy) ([][]units.Bandwidth, error) {
	gpus := t.GPUs()
	m := make([][]units.Bandwidth, len(gpus))
	for i, a := range gpus {
		m[i] = make([]units.Bandwidth, len(gpus))
		for j, b := range gpus {
			if a == b {
				continue
			}
			p, err := t.Route(a, b, policy)
			if err != nil {
				return nil, err
			}
			m[i][j] = units.Bandwidth(p.MinBW())
		}
	}
	return m, nil
}

// Describe renders a human-readable summary of the topology: nodes, links,
// and the NVLink adjacency matrix in nvidia-smi style (NV1/NV2 for 1- and
// 2-lane NVLink, PIX for PCIe-only pairs).
func (t *Topology) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Nodes:\n")
	for _, n := range t.Nodes() {
		fmt.Fprintf(&b, "  %-6s kind=%s socket=%d\n", n.Name, n.Kind, n.Socket)
	}
	fmt.Fprintf(&b, "Links:\n")
	for _, l := range t.Links() {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	gpus := t.GPUs()
	fmt.Fprintf(&b, "NVLink adjacency:\n      ")
	for _, g := range gpus {
		fmt.Fprintf(&b, "%5s", fmt.Sprintf("G%d", g))
	}
	fmt.Fprintln(&b)
	for _, a := range gpus {
		fmt.Fprintf(&b, "  %-4s", fmt.Sprintf("G%d", a))
		for _, c := range gpus {
			cell := "  PIX"
			if a == c {
				cell = "    X"
			} else if l := t.DirectLink(a, c, NVLink); l != nil {
				cell = fmt.Sprintf("  NV%d", l.Lanes)
			}
			fmt.Fprintf(&b, "%s", cell)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
