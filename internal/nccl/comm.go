package nccl

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Kernel names NCCL collectives execute, as they appear in nvprof output.
const (
	KernelAllReduce     = "ncclAllReduceRingKernel"
	KernelBroadcast     = "ncclBroadcastRingKernel"
	KernelReduceScatter = "ncclReduceScatterRingKernel"
	KernelAllGather     = "ncclAllGatherRingKernel"
)

// collective indexes a communicator's interned kernel labels.
type collective int

const (
	collAllReduce collective = iota
	collBroadcast
	collReduceScatter
	collAllGather
	numCollectives
)

// collectiveKernels names each collective's kernel.
var collectiveKernels = [numCollectives]string{
	collAllReduce:     KernelAllReduce,
	collBroadcast:     KernelBroadcast,
	collReduceScatter: KernelReduceScatter,
	collAllGather:     KernelAllGather,
}

// Algorithm selects the collective schedule.
type Algorithm int

// Collective algorithms.
const (
	// AlgoRing is NCCL 2.0's schedule (what the paper measured):
	// bandwidth-optimal, 2(N-1) latency steps.
	AlgoRing Algorithm = iota
	// AlgoTree is the double-binary-tree schedule NCCL later added:
	// comparable bandwidth, O(log N) latency steps — the fix for the
	// small-message overheads the paper identified.
	AlgoTree
)

// Selection is one collective choice: the schedule and the transfer
// protocol. The zero value is the paper's rings over Simple. Under
// ProtoAuto the algorithm is picked per collective, so Algorithm only
// matters with a fixed protocol.
type Selection struct {
	Algorithm Algorithm
	Protocol  Protocol
}

// String names the algorithm.
func (a Algorithm) String() string {
	if a == AlgoTree {
		return "tree"
	}
	return "ring"
}

// The communicator's cost model: values representative of NCCL 2.0 on the
// DGX-1, the one NCCL the paper calibrates.
const (
	// maxRings bounds the edge-disjoint NVLink rings the communicator
	// builds (NCCL 2 on the DGX-1 typically finds a small number).
	maxRings = 2
	// kernelOverhead is the fixed device-side cost of one collective call
	// per rank (kernel start, block synchronization).
	kernelOverhead = 4 * time.Microsecond
	// stepLatency is the per-ring-step latency (fine-grained chunk
	// synchronization between neighbors).
	stepLatency = 2 * time.Microsecond
	// setupCost is the one-time communicator initialization (topology
	// detection, ring search, buffer registration). The trainer charges it
	// once per training session.
	setupCost = 220 * time.Millisecond
	// localPassBW is the effective memory bandwidth of the degenerate
	// single-rank collective, which still runs the Reduce/Broadcast
	// kernels over device memory (the source of the paper's single-GPU
	// NCCL overhead, its Table II).
	localPassBW = 450 * units.GBPerSec
)

// Layout is a communicator's immutable half over one device set of one
// topology: its rings, the link (or routed path) of every ring hop, every
// link direction the wire phase occupies, and the tree's latency steps.
// Ring search and hop routing depend on nothing a collective books, so a
// layout is built once per (machine, device set) and shared read-only:
// every Communicator made from it (NewOn) books on its own runtime's
// fabric.
type Layout struct {
	devs  []topology.NodeID
	rings []Ring
	// treeSteps is the double-binary tree's latency step count (reduce up
	// plus broadcast down), fixed by the rank count.
	treeSteps int
	// hopLinks[r][i] is the link ring r uses from Order[i] to
	// Order[i+1 mod N] (nil entries only for PCIe rings, whose occupancy
	// is booked per routed hop in hopPaths).
	hopLinks [][]*topology.Link
	hopPaths [][]topology.Path
	// hops is every link direction a collective's wire phase occupies,
	// ring by ring and hop by hop, in booking order.
	hops []topology.Hop
	// nvlink records whether the rings run over NVLink — the fabric
	// property protocol auto-selection (and LL128 eligibility) keys on.
	nvlink bool
}

// NewLayout builds the rings of a communicator over the devices of top:
// up to maxRings NVLink rings, or else a switch ring, or else a PCIe
// fallback ring.
func NewLayout(top *topology.Topology, devs []topology.NodeID) (*Layout, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("nccl: communicator needs at least one device")
	}
	lay := &Layout{devs: append([]topology.NodeID(nil), devs...)}
	// len(devs) > 0, so the tree always builds.
	if t, err := BuildTree(len(lay.devs)); err == nil {
		lay.treeSteps = 2 * (t.Depth + 1)
	}
	if len(lay.devs) > 1 {
		lay.rings = BuildRings(top, lay.devs)
		if len(lay.rings) == 0 {
			if r, ok := SwitchRing(top, lay.devs); ok {
				lay.rings = []Ring{r}
			} else {
				r, err := PCIeRing(top, lay.devs)
				if err != nil {
					return nil, err
				}
				lay.rings = []Ring{r}
			}
		}
		if err := lay.resolveHops(top); err != nil {
			return nil, err
		}
		lay.nvlink = !lay.rings[0].PCIe
	}
	return lay, nil
}

// Communicator is one NCCL communicator over a set of GPUs: a shared
// Layout, and the runtime state its collectives book.
type Communicator struct {
	*Layout
	rt *cuda.Runtime
	// gang holds one communication stream per rank, in rank order.
	gang *cuda.Gang
	// kernels holds each collective's kernel label, interned once.
	kernels [numCollectives]cuda.Kernel
	sel     Selection
	// hopRes is the runtime's resource for each of the layout's hops.
	hopRes []*sim.Resource
}

// New builds a communicator over the devices, constructing NVLink rings
// (or a PCIe fallback ring) from the runtime's topology, whose collectives
// run as sel selects.
func New(rt *cuda.Runtime, devs []topology.NodeID, sel Selection) (*Communicator, error) {
	lay, err := NewLayout(rt.Fabric().Topology(), devs)
	if err != nil {
		return nil, err
	}
	return NewOn(rt, lay, sel)
}

// NewOn builds a communicator on a layout over the runtime's topology,
// whose collectives run as sel selects.
func NewOn(rt *cuda.Runtime, lay *Layout, sel Selection) (*Communicator, error) {
	for _, d := range lay.devs {
		if rt.Device(d) == nil {
			return nil, fmt.Errorf("nccl: device %d not managed by runtime", d)
		}
	}
	c := &Communicator{Layout: lay, rt: rt, sel: sel, gang: rt.CommGang(lay.devs)}
	for k, name := range collectiveKernels {
		c.kernels[k] = rt.NewKernel(name, 0)
	}
	if len(lay.hops) > 0 {
		fab := rt.Fabric()
		c.hopRes = make([]*sim.Resource, len(lay.hops))
		for i, h := range lay.hops {
			c.hopRes[i] = fab.Direction(h.Link, h.From)
		}
	}
	return c, nil
}

// resolveHops caches the link (or routed path) of every ring hop, and
// every link direction the hops occupy.
func (lay *Layout) resolveHops(top *topology.Topology) error {
	lay.hopLinks = make([][]*topology.Link, len(lay.rings))
	lay.hopPaths = make([][]topology.Path, len(lay.rings))
	for ri, r := range lay.rings {
		n := len(r.Order)
		lay.hopLinks[ri] = make([]*topology.Link, n)
		lay.hopPaths[ri] = make([]topology.Path, n)
		for i := 0; i < n; i++ {
			from, to := r.Order[i], r.Order[(i+1)%n]
			if from == to { // 2-rank ring lists the pair once
				continue
			}
			if !r.PCIe {
				if l := top.DirectLink(from, to, topology.NVLink); l != nil {
					lay.hopLinks[ri][i] = l
					continue
				}
				// Switch-relayed hop: keep the routed cut-through path.
				p, err := top.Route(from, to, topology.RouteStagedNVLink)
				if err != nil {
					return fmt.Errorf("nccl: ring hop %d->%d unroutable: %w", from, to, err)
				}
				lay.hopPaths[ri][i] = p
				continue
			}
			p, err := top.Route(from, to, topology.RoutePCIeFallback)
			if err != nil {
				return err
			}
			lay.hopPaths[ri][i] = p
		}
	}
	for ri, r := range lay.rings {
		for i, from := range r.Order {
			if l := lay.hopLinks[ri][i]; l != nil {
				lay.hops = append(lay.hops, topology.Hop{Link: l, From: from, To: l.Other(from)})
				continue
			}
			lay.hops = append(lay.hops, lay.hopPaths[ri][i].Hops...)
		}
	}
	return nil
}

// BusBW returns the aggregate ring bandwidth (the "bus bandwidth" NCCL's
// own benchmarks report).
func (c *Communicator) BusBW() units.Bandwidth {
	var bw units.Bandwidth
	for _, r := range c.rings {
		bw += r.LaneBW
	}
	return bw
}

// Size returns the number of ranks.
func (c *Communicator) Size() int { return len(c.devs) }

// SetupCost returns the one-time initialization cost the trainer charges.
func (c *Communicator) SetupCost() time.Duration { return setupCost }

// wireTime returns the pipelined transfer time of a collective moving
// dataFactor*size bytes per rank around the rings (dataFactor is the ring
// algorithm's traffic multiplier, e.g. 2(N-1)/N for AllReduce). The tree
// algorithm keeps the bandwidth term (double trees sustain comparable
// bandwidth over the same links) but replaces the latency term with its
// O(log N) step count. The protocol scales both terms: its line format
// taxes bandwidth, its synchronization scheme discounts step latency.
func (c *Communicator) wireTime(size units.Bytes, dataFactor float64, steps int) time.Duration {
	if size <= 0 {
		return 0
	}
	algo, proto := c.resolve(size)
	if algo == AlgoTree {
		// Reduce up + broadcast down, both trees concurrently.
		steps = c.treeSteps
	}
	bytes := units.Bytes(float64(size) * dataFactor)
	bw := units.Bandwidth(float64(c.BusBW()) * proto.bwFraction())
	tt := units.TransferTime(bytes, bw)
	return tt + time.Duration(steps)*proto.stepLatency(stepLatency)
}

// resolve picks the (algorithm, protocol) pair for one collective of the
// given per-rank size: auto delegates to AutoSelect, LL128 off NVLink
// degrades to Simple (its 128-byte write-visibility guarantee only holds
// on NVLink fabrics), and everything else is taken as configured.
func (c *Communicator) resolve(size units.Bytes) (Algorithm, Protocol) {
	if c.sel.Protocol == ProtoAuto {
		return AutoSelect(size, len(c.devs), c.nvlink)
	}
	proto := c.sel.Protocol
	if proto == ProtoLL128 && !c.nvlink {
		proto = ProtoSimple
	}
	return c.sel.Algorithm, proto
}

// localPass is the degenerate single-rank collective: the Reduce/Broadcast
// kernels still stream the buffer through device memory.
func (c *Communicator) localPass(size units.Bytes) time.Duration {
	return units.TransferTime(2*size, localPassBW)
}

// run executes one collective: per-rank host launches, a globally
// synchronized kernel window (one cuda.Gang launch), and ring-link
// occupancy. It returns the operation's completion time.
func (c *Communicator) run(stage profiler.Stage, coll collective, ready time.Duration, wire time.Duration) time.Duration {
	kernel := c.kernels[coll]
	if len(c.devs) == 1 {
		s := c.gang.Stream(0)
		hostDone := s.HostLaunch(stage, ready)
		start := hostDone
		if ready > start {
			start = ready
		}
		return s.Extend(stage, kernel, start, start+kernelOverhead+wire)
	}
	global, end := c.gang.Launch(stage, kernel, ready, kernelOverhead+wire)
	c.occupyRings(global+kernelOverhead, wire)
	return end
}

// occupyRings books every ring hop busy for the wire duration.
func (c *Communicator) occupyRings(ready, wire time.Duration) {
	if wire <= 0 {
		return
	}
	for _, r := range c.hopRes {
		r.Book(ready, wire)
	}
}

// Wire is one array's collective wire times: how long its AllReduce and
// its Broadcast run beyond the kernel overhead (the local pass on a
// single rank).
type Wire struct {
	AllReduce, Broadcast time.Duration
}

// Price returns the wire times of an AllReduce and a Broadcast of size
// bytes per rank. They depend on the layout, the size and the
// selection, never on what is booked, so a caller that exchanges
// the same arrays every iteration prices each once and books them with
// AllReducePriced and BroadcastPriced.
func (c *Communicator) Price(size units.Bytes) Wire {
	return Wire{AllReduce: c.allReduceWire(size), Broadcast: c.broadcastWire(size)}
}

// allReduceWire is an AllReduce's wire time: ring reduce-scatter + ring
// all-gather, each rank moving 2(N-1)/N of the buffer.
func (c *Communicator) allReduceWire(size units.Bytes) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.localPass(size)
	}
	return c.wireTime(size, 2*float64(n-1)/float64(n), 2*(n-1))
}

// broadcastWire is a Broadcast's wire time: a pipelined ring copy, each
// rank forwarding chunks as they arrive.
func (c *Communicator) broadcastWire(size units.Bytes) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.localPass(size) / 2
	}
	return c.wireTime(size, 1, n-1)
}

// AllReduce reduces size bytes across all ranks, leaving the result on
// every rank. ready is when every rank's input is available.
func (c *Communicator) AllReduce(stage profiler.Stage, size units.Bytes, ready time.Duration) time.Duration {
	return c.run(stage, collAllReduce, ready, c.allReduceWire(size))
}

// AllReducePriced is AllReduce of an array priced ahead of time (Price).
func (c *Communicator) AllReducePriced(stage profiler.Stage, w Wire, ready time.Duration) time.Duration {
	return c.run(stage, collAllReduce, ready, w.AllReduce)
}

// Broadcast sends size bytes from the first rank to all ranks: the ring
// broadcast starts at devs[0].
func (c *Communicator) Broadcast(stage profiler.Stage, size units.Bytes, ready time.Duration) time.Duration {
	return c.run(stage, collBroadcast, ready, c.broadcastWire(size))
}

// BroadcastPriced is Broadcast of an array priced ahead of time (Price).
func (c *Communicator) BroadcastPriced(stage profiler.Stage, w Wire, ready time.Duration) time.Duration {
	return c.run(stage, collBroadcast, ready, w.Broadcast)
}

// ReduceScatter reduces and scatters 1/N of the buffer to each rank.
func (c *Communicator) ReduceScatter(stage profiler.Stage, size units.Bytes, ready time.Duration) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.run(stage, collReduceScatter, ready, c.localPass(size)/2)
	}
	wire := c.wireTime(size, float64(n-1)/float64(n), n-1)
	return c.run(stage, collReduceScatter, ready, wire)
}

// AllGather gathers 1/N contributions into the full buffer on every rank.
func (c *Communicator) AllGather(stage profiler.Stage, size units.Bytes, ready time.Duration) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.run(stage, collAllGather, ready, c.localPass(size)/2)
	}
	wire := c.wireTime(size, float64(n-1)/float64(n), n-1)
	return c.run(stage, collAllGather, ready, wire)
}
