package topology

import (
	"fmt"
)

// Hop is one traversal of a link in a specific direction.
type Hop struct {
	Link *Link
	From NodeID
	To   NodeID
}

// Path is an ordered series of hops from a source to a destination.
// Multi-hop GPU paths are store-and-forward: the DGX-1's NVLink routers
// cannot forward packets, so a 2-hop transfer is two full copies staged
// through the intermediate GPU's memory (paper §V-A, footnote 4). Paths
// whose every intermediate node is a Switch are cut-through instead.
type Path struct {
	Hops []Hop
	// CutThrough marks a path whose intermediate nodes forward in flight
	// (NVSwitch): the transfer occupies all hops concurrently at the
	// bottleneck rate rather than staging per hop.
	CutThrough bool
}

// Src returns the path's source node.
func (p Path) Src() NodeID { return p.Hops[0].From }

// MinBW returns the lowest per-direction bandwidth along the path.
func (p Path) MinBW() (bw float64) {
	for i, h := range p.Hops {
		if i == 0 || float64(h.Link.BW) < bw {
			bw = float64(h.Link.BW)
		}
	}
	return bw
}

// String renders the path, e.g. "0 -(NVLink)-> 1 -(NVLink)-> 7".
func (p Path) String() string {
	if len(p.Hops) == 0 {
		return "<empty path>"
	}
	s := fmt.Sprintf("%d", p.Src())
	for _, h := range p.Hops {
		s += fmt.Sprintf(" -(%s)-> %d", h.Link.Type, h.To)
	}
	return s
}

// RoutePolicy selects how GPU-to-GPU traffic is routed when no direct
// NVLink exists.
type RoutePolicy int

// Routing policies.
const (
	// RouteStagedNVLink relays through one intermediate GPU over NVLink
	// when possible (what MXNet's multi-stage transfer does), falling back
	// to PCIe through the host CPUs otherwise.
	RouteStagedNVLink RoutePolicy = iota
	// RoutePCIeFallback never stages through a GPU: traffic between GPUs
	// without a direct NVLink goes DtoH + HtoD over PCIe (and QPI when the
	// GPUs hang off different sockets). This is the naive CUDA behaviour
	// the paper contrasts against.
	RoutePCIeFallback
)

// Route computes the path from src to dst under the policy. src and dst
// must be distinct GPUs.
func (t *Topology) Route(src, dst NodeID, policy RoutePolicy) (Path, error) {
	if src == dst {
		return Path{}, fmt.Errorf("topology: route from node %d to itself", src)
	}
	if l := t.DirectLink(src, dst, NVLink); l != nil {
		return Path{Hops: []Hop{{Link: l, From: src, To: dst}}}, nil
	}
	if p, ok := t.switchPath(src, dst); ok {
		return p, nil
	}
	if policy == RouteStagedNVLink {
		if p, ok := t.stagedNVLink(src, dst); ok {
			return p, nil
		}
	}
	return t.pciePath(src, dst)
}

// switchPath relays through a cut-through switch when both endpoints hang
// off one.
func (t *Topology) switchPath(src, dst NodeID) (Path, bool) {
	for _, l1 := range t.adj[src] {
		if l1.Type != NVLink {
			continue
		}
		mid := l1.Other(src)
		n, err := t.Node(mid)
		if err != nil || n.Kind != Switch {
			continue
		}
		l2 := t.DirectLink(mid, dst, NVLink)
		if l2 == nil {
			continue
		}
		return Path{
			Hops: []Hop{
				{Link: l1, From: src, To: mid},
				{Link: l2, From: mid, To: dst},
			},
			CutThrough: true,
		}, true
	}
	return Path{}, false
}

// stagedNVLink finds the best single-intermediate NVLink relay: the
// intermediate GPU maximizing the bottleneck bandwidth, ties broken by
// lowest node ID for determinism.
func (t *Topology) stagedNVLink(src, dst NodeID) (Path, bool) {
	var (
		best    Path
		bestBW  float64
		found   bool
		viaBest NodeID
	)
	for _, l1 := range t.adj[src] {
		if l1.Type != NVLink {
			continue
		}
		mid := l1.Other(src)
		if n, err := t.Node(mid); err != nil || n.Kind != GPU {
			continue
		}
		l2 := t.DirectLink(mid, dst, NVLink)
		if l2 == nil {
			continue
		}
		p := Path{Hops: []Hop{
			{Link: l1, From: src, To: mid},
			{Link: l2, From: mid, To: dst},
		}}
		bw := p.MinBW()
		if !found || bw > bestBW || (bw == bestBW && mid < viaBest) {
			best, bestBW, viaBest, found = p, bw, mid, true
		}
	}
	return best, found
}

// pciePath builds the host-routed path: GPU -> host CPU [-> other CPU] ->
// GPU over PCIe (and QPI across sockets).
func (t *Topology) pciePath(src, dst NodeID) (Path, error) {
	srcCPU, err := t.HostCPU(src)
	if err != nil {
		return Path{}, err
	}
	dstCPU, err := t.HostCPU(dst)
	if err != nil {
		return Path{}, err
	}
	up := t.DirectLink(src, srcCPU, PCIe)
	if up == nil {
		return Path{}, fmt.Errorf("topology: GPU %d has no PCIe link to CPU %d", src, srcCPU)
	}
	down := t.DirectLink(dst, dstCPU, PCIe)
	if down == nil {
		return Path{}, fmt.Errorf("topology: GPU %d has no PCIe link to CPU %d", dst, dstCPU)
	}
	hops := []Hop{{Link: up, From: src, To: srcCPU}}
	if srcCPU != dstCPU {
		x := t.DirectLink(srcCPU, dstCPU, QPI)
		if x == nil {
			return Path{}, fmt.Errorf("topology: no QPI link between CPU %d and CPU %d", srcCPU, dstCPU)
		}
		hops = append(hops, Hop{Link: x, From: srcCPU, To: dstCPU})
	}
	hops = append(hops, Hop{Link: down, From: dstCPU, To: dst})
	return Path{Hops: hops}, nil
}
