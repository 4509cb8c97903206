// Package topology models the interconnect network of a multi-GPU node: the
// set of processors (GPUs and CPUs), the links between them (NVLink, PCIe,
// QPI), and the routing policies traffic uses. The package provides the
// Volta-based DGX-1 wiring the paper profiles (its Figure 2).
package topology

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/units"
)

// NodeID identifies a processor in the topology. GPUs are numbered 0..n-1;
// CPUs get IDs above the GPUs.
type NodeID int

// NodeKind distinguishes processor types.
type NodeKind int

// Processor kinds.
const (
	GPU NodeKind = iota
	CPU
	// Switch is a cut-through fabric element (NVSwitch): traffic crossing
	// it is NOT store-and-forward — both attached links stream
	// concurrently at the path's bottleneck rate.
	Switch
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case GPU:
		return "GPU"
	case CPU:
		return "CPU"
	case Switch:
		return "Switch"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is one processor.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
	// Socket is the CPU socket the node belongs to (for GPUs, the socket
	// whose PCIe root complex hosts them; for CPUs, their own index).
	Socket int
}

// LinkType distinguishes interconnect technologies.
type LinkType int

// Interconnect technologies.
const (
	NVLink LinkType = iota
	PCIe
	QPI
)

// String names the link type.
func (t LinkType) String() string {
	switch t {
	case NVLink:
		return "NVLink"
	case PCIe:
		return "PCIe"
	case QPI:
		return "QPI"
	}
	return fmt.Sprintf("LinkType(%d)", int(t))
}

// Link is a bidirectional connection between two nodes. Lanes counts
// physical links aggregated into this logical connection (the DGX-1 bonds
// pairs of NVLink bricks between some GPU pairs); BW is the aggregate
// bandwidth available in EACH direction.
type Link struct {
	A, B    NodeID
	Type    LinkType
	Lanes   int
	BW      units.Bandwidth
	Latency time.Duration

	// index is the link's position in its topology, set by AddLink.
	index int
}

// Index returns the link's position in its topology's link list (the
// order AddLink registered it), a dense ID per-link state is kept by.
func (l *Link) Index() int { return l.index }

// Other returns the endpoint of l that is not n. It panics if n is not an
// endpoint, which would indicate a routing bug.
func (l *Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topology: node %d not on link %d-%d", n, l.A, l.B))
}

// String renders the link, e.g. "GPU0-GPU2 NVLink x2 50.00GB/s".
func (l *Link) String() string {
	return fmt.Sprintf("%d-%d %s x%d %v", l.A, l.B, l.Type, l.Lanes, l.BW)
}

// Topology is the interconnect graph.
type Topology struct {
	nodes []Node
	links []*Link
	adj   map[NodeID][]*Link

	// NVLinkPorts is the per-GPU NVLink port budget Validate enforces.
	// Zero means NVLinkPortsPerV100 (6) — the Volta default. Newer GPU
	// generations carry more bricks per package (12 on A100, 18 on H100),
	// so their builders raise the budget.
	NVLinkPorts int
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{adj: make(map[NodeID][]*Link)}
}

// AddNode registers a processor. IDs must be unique.
func (t *Topology) AddNode(n Node) error {
	for _, e := range t.nodes {
		if e.ID == n.ID {
			return fmt.Errorf("topology: duplicate node id %d", n.ID)
		}
	}
	t.nodes = append(t.nodes, n)
	return nil
}

// AddLink registers a connection. Both endpoints must exist.
func (t *Topology) AddLink(l Link) error {
	if _, err := t.Node(l.A); err != nil {
		return err
	}
	if _, err := t.Node(l.B); err != nil {
		return err
	}
	if l.A == l.B {
		return fmt.Errorf("topology: self-link on node %d", l.A)
	}
	if l.BW <= 0 {
		return fmt.Errorf("topology: link %d-%d has non-positive bandwidth", l.A, l.B)
	}
	if l.Lanes <= 0 {
		l.Lanes = 1
	}
	l.index = len(t.links)
	lp := &l
	t.links = append(t.links, lp)
	t.adj[l.A] = append(t.adj[l.A], lp)
	t.adj[l.B] = append(t.adj[l.B], lp)
	return nil
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) (Node, error) {
	for _, n := range t.nodes {
		if n.ID == id {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("topology: unknown node %d", id)
}

// Nodes returns all nodes in ID order.
func (t *Topology) Nodes() []Node {
	out := make([]Node, len(t.nodes))
	copy(out, t.nodes)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GPUs returns the IDs of all GPU nodes in ascending order.
func (t *Topology) GPUs() []NodeID {
	var ids []NodeID
	for _, n := range t.nodes {
		if n.Kind == GPU {
			ids = append(ids, n.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CPUs returns the IDs of all CPU nodes in ascending order.
func (t *Topology) CPUs() []NodeID {
	var ids []NodeID
	for _, n := range t.nodes {
		if n.Kind == CPU {
			ids = append(ids, n.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Links returns all links.
func (t *Topology) Links() []*Link {
	out := make([]*Link, len(t.links))
	copy(out, t.links)
	return out
}

// NumNodes returns the number of nodes. Builders number nodes densely
// from zero, so it bounds their IDs.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the number of links; Link.Index ranges over
// [0, NumLinks()).
func (t *Topology) NumLinks() int { return len(t.links) }

// LinksAt returns the links incident to the node.
func (t *Topology) LinksAt(id NodeID) []*Link {
	out := make([]*Link, len(t.adj[id]))
	copy(out, t.adj[id])
	return out
}

// DirectLink returns the highest-bandwidth link of the given type directly
// connecting a and b, or nil if none exists.
func (t *Topology) DirectLink(a, b NodeID, typ LinkType) *Link {
	var best *Link
	for _, l := range t.adj[a] {
		if l.Type != typ {
			continue
		}
		if l.Other(a) != b {
			continue
		}
		if best == nil || l.BW > best.BW {
			best = l
		}
	}
	return best
}

// NVLinkNeighbors returns the GPU IDs directly reachable from id over
// NVLink, in ascending order.
func (t *Topology) NVLinkNeighbors(id NodeID) []NodeID {
	seen := map[NodeID]bool{}
	for _, l := range t.adj[id] {
		if l.Type == NVLink {
			seen[l.Other(id)] = true
		}
	}
	out := make([]NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HostCPU returns the CPU whose PCIe root complex hosts the given GPU.
func (t *Topology) HostCPU(gpu NodeID) (NodeID, error) {
	g, err := t.Node(gpu)
	if err != nil {
		return 0, err
	}
	if g.Kind != GPU {
		return 0, fmt.Errorf("topology: node %d is not a GPU", gpu)
	}
	for _, n := range t.nodes {
		if n.Kind == CPU && n.Socket == g.Socket {
			return n.ID, nil
		}
	}
	return 0, fmt.Errorf("topology: GPU %d has no host CPU on socket %d", gpu, g.Socket)
}
