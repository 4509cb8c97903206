package nccl

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// Kernel names NCCL collectives execute, as they appear in nvprof output.
const (
	KernelAllReduce     = "ncclAllReduceRingKernel"
	KernelBroadcast     = "ncclBroadcastRingKernel"
	KernelReduce        = "ncclReduceRingKernel"
	KernelReduceScatter = "ncclReduceScatterRingKernel"
	KernelAllGather     = "ncclAllGatherRingKernel"
)

// collective indexes a communicator's interned kernel labels.
type collective int

const (
	collAllReduce collective = iota
	collBroadcast
	collReduce
	collReduceScatter
	collAllGather
	numCollectives
)

// collectiveKernels names each collective's kernel.
var collectiveKernels = [numCollectives]string{
	collAllReduce:     KernelAllReduce,
	collBroadcast:     KernelBroadcast,
	collReduce:        KernelReduce,
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

// String names the algorithm.
func (a Algorithm) String() string {
	if a == AlgoTree {
		return "tree"
	}
	return "ring"
}

// Config tunes the communicator's cost model.
type Config struct {
	// MaxRings bounds the edge-disjoint NVLink rings the communicator
	// builds (NCCL 2 on the DGX-1 typically finds a small number).
	MaxRings int
	// Algorithm selects the collective schedule (default ring). Ignored
	// when Protocol is ProtoAuto, which picks ring vs tree per collective.
	Algorithm Algorithm
	// Protocol selects the transfer protocol (default ProtoSimple, the
	// paper-era behavior). ProtoAuto resolves per collective by message
	// size and fabric.
	Protocol Protocol
	// KernelOverhead is the fixed device-side cost of one collective call
	// per rank (kernel start, block synchronization).
	KernelOverhead time.Duration
	// StepLatency is the per-ring-step latency (fine-grained chunk
	// synchronization between neighbors).
	StepLatency time.Duration
	// SetupCost is the one-time communicator initialization (topology
	// detection, ring search, buffer registration). The trainer charges it
	// once per training session.
	SetupCost time.Duration
	// LocalPassBW is the effective memory bandwidth of the degenerate
	// single-rank collective, which still runs the Reduce/Broadcast
	// kernels over device memory (the source of the paper's single-GPU
	// NCCL overhead, its Table II).
	LocalPassBW units.Bandwidth
}

// DefaultConfig returns values representative of NCCL 2.0 on the DGX-1.
func DefaultConfig() Config {
	return Config{
		MaxRings:       2,
		KernelOverhead: 4 * time.Microsecond,
		StepLatency:    2 * time.Microsecond,
		SetupCost:      220 * time.Millisecond,
		LocalPassBW:    450 * units.GBPerSec,
	}
}

// withDefaults fills every zero field from DefaultConfig, so the zero
// Config behaves exactly like the default one. (An earlier version
// rewrote a zero MaxRings to 1 while DefaultConfig used 2, silently
// halving ring bandwidth for zero-value callers.)
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.MaxRings <= 0 {
		cfg.MaxRings = def.MaxRings
	}
	if cfg.KernelOverhead <= 0 {
		cfg.KernelOverhead = def.KernelOverhead
	}
	if cfg.StepLatency <= 0 {
		cfg.StepLatency = def.StepLatency
	}
	if cfg.SetupCost <= 0 {
		cfg.SetupCost = def.SetupCost
	}
	if cfg.LocalPassBW <= 0 {
		cfg.LocalPassBW = def.LocalPassBW
	}
	return cfg
}

// Communicator is one NCCL communicator over a set of GPUs.
type Communicator struct {
	rt    *cuda.Runtime
	devs  []topology.NodeID
	rings []Ring
	// streams[i] is rank i's communication stream.
	streams []*cuda.Stream
	// kernels holds each collective's kernel label, interned once.
	kernels [numCollectives]cuda.Kernel
	cfg     Config
	// treeSteps is the double-binary tree's latency step count (reduce up
	// plus broadcast down), fixed by the rank count.
	treeSteps int
	// hopLinks[r][i] is the link ring r uses from Order[i] to
	// Order[i+1 mod N] (nil entries only for PCIe rings, whose occupancy
	// is booked per routed hop in hopPaths).
	hopLinks [][]*topology.Link
	hopPaths [][]topology.Path
	// nvlink records whether the rings run over NVLink — the fabric
	// property protocol auto-selection (and LL128 eligibility) keys on.
	nvlink bool
	// avail is per-collective scratch (rank availability times), reused
	// across calls — a communicator issues thousands of collectives per
	// simulated epoch and is single-threaded within its run.
	avail []time.Duration
}

// New builds a communicator over the devices, constructing NVLink rings
// (or a PCIe fallback ring) from the runtime's topology.
func New(rt *cuda.Runtime, devs []topology.NodeID, cfg Config) (*Communicator, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("nccl: communicator needs at least one device")
	}
	cfg = cfg.withDefaults()
	c := &Communicator{
		rt:      rt,
		devs:    append([]topology.NodeID(nil), devs...),
		streams: make([]*cuda.Stream, len(devs)),
		cfg:     cfg,
	}
	for i, d := range c.devs {
		if rt.Device(d) == nil {
			return nil, fmt.Errorf("nccl: device %d not managed by runtime", d)
		}
		c.streams[i] = rt.CommStream(d, fmt.Sprintf("nccl%d", d))
	}
	for k, name := range collectiveKernels {
		c.kernels[k] = rt.NewKernel(name, 0)
	}
	// len(devs) > 0, so the tree always builds.
	if t, err := BuildTree(len(c.devs)); err == nil {
		c.treeSteps = 2 * (t.Depth + 1)
	}
	top := rt.Fabric().Topology()
	if len(c.devs) > 1 {
		c.rings = BuildRings(top, c.devs, cfg.MaxRings)
		if len(c.rings) == 0 {
			if r, ok := SwitchRing(top, c.devs); ok {
				c.rings = []Ring{r}
			} else {
				r, err := PCIeRing(top, c.devs)
				if err != nil {
					return nil, err
				}
				c.rings = []Ring{r}
			}
		}
		if err := c.resolveHops(top); err != nil {
			return nil, err
		}
		c.nvlink = !c.rings[0].PCIe
	}
	return c, nil
}

// resolveHops caches the link (or routed path) of every ring hop.
func (c *Communicator) resolveHops(top *topology.Topology) error {
	c.hopLinks = make([][]*topology.Link, len(c.rings))
	c.hopPaths = make([][]topology.Path, len(c.rings))
	for ri, r := range c.rings {
		n := len(r.Order)
		c.hopLinks[ri] = make([]*topology.Link, n)
		c.hopPaths[ri] = make([]topology.Path, n)
		for i := 0; i < n; i++ {
			from, to := r.Order[i], r.Order[(i+1)%n]
			if from == to { // 2-rank ring lists the pair once
				continue
			}
			if !r.PCIe {
				if l := top.DirectLink(from, to, topology.NVLink); l != nil {
					c.hopLinks[ri][i] = l
					continue
				}
				// Switch-relayed hop: keep the routed cut-through path.
				p, err := top.Route(from, to, topology.RouteStagedNVLink)
				if err != nil {
					return fmt.Errorf("nccl: ring hop %d->%d unroutable: %w", from, to, err)
				}
				c.hopPaths[ri][i] = p
				continue
			}
			p, err := top.Route(from, to, topology.RoutePCIeFallback)
			if err != nil {
				return err
			}
			c.hopPaths[ri][i] = p
		}
	}
	return nil
}

// Rings returns the communicator's rings.
func (c *Communicator) Rings() []Ring {
	out := make([]Ring, len(c.rings))
	copy(out, c.rings)
	return out
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
func (c *Communicator) SetupCost() time.Duration { return c.cfg.SetupCost }

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
	return tt + time.Duration(steps)*proto.stepLatency(c.cfg.StepLatency)
}

// resolve picks the (algorithm, protocol) pair for one collective of the
// given per-rank size: auto delegates to AutoSelect, LL128 off NVLink
// degrades to Simple (its 128-byte write-visibility guarantee only holds
// on NVLink fabrics), and everything else is taken as configured.
func (c *Communicator) resolve(size units.Bytes) (Algorithm, Protocol) {
	if c.cfg.Protocol == ProtoAuto {
		return AutoSelect(size, len(c.devs), c.nvlink)
	}
	proto := c.cfg.Protocol
	if proto == ProtoLL128 && !c.nvlink {
		proto = ProtoSimple
	}
	return c.cfg.Algorithm, proto
}

// localPass is the degenerate single-rank collective: the Reduce/Broadcast
// kernels still stream the buffer through device memory.
func (c *Communicator) localPass(size units.Bytes) time.Duration {
	return units.TransferTime(2*size, c.cfg.LocalPassBW)
}

// run executes one collective: per-rank host launches, a globally
// synchronized kernel window, and ring-link occupancy. It returns the
// operation's completion time.
func (c *Communicator) run(stage profiler.Stage, coll collective, ready time.Duration, wire time.Duration) time.Duration {
	kernel := c.kernels[coll]
	if len(c.devs) == 1 {
		s := c.streams[0]
		hostDone := s.HostLaunch(stage, ready)
		start := hostDone
		if ready > start {
			start = ready
		}
		return s.Extend(stage, kernel, start, start+c.cfg.KernelOverhead+wire)
	}
	global := ready
	if cap(c.avail) < len(c.devs) {
		c.avail = make([]time.Duration, len(c.devs))
	}
	avail := c.avail[:len(c.devs)]
	for i, s := range c.streams {
		hostDone := s.HostLaunch(stage, ready)
		a := hostDone
		if t := s.Tail(); t > a {
			a = t
		}
		if ready > a {
			a = ready
		}
		avail[i] = a
		if a > global {
			global = a
		}
	}
	end := global + c.cfg.KernelOverhead + wire
	for i, s := range c.streams {
		s.Extend(stage, kernel, avail[i], end)
	}
	c.occupyRings(global+c.cfg.KernelOverhead, wire)
	return end
}

// occupyRings books every ring hop busy for the wire duration.
func (c *Communicator) occupyRings(ready, wire time.Duration) {
	if wire <= 0 {
		return
	}
	fab := c.rt.Fabric()
	for ri, r := range c.rings {
		n := len(r.Order)
		for i := 0; i < n; i++ {
			from := r.Order[i]
			if l := c.hopLinks[ri][i]; l != nil {
				fab.Occupy(l, from, ready, wire)
				continue
			}
			for _, hop := range c.hopPaths[ri][i].Hops {
				fab.Occupy(hop.Link, hop.From, ready, wire)
			}
		}
	}
}

// AllReduce reduces size bytes across all ranks, leaving the result on
// every rank (ring reduce-scatter + ring all-gather: each rank moves
// 2(N-1)/N of the buffer). ready is when every rank's input is available.
func (c *Communicator) AllReduce(stage profiler.Stage, size units.Bytes, ready time.Duration) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.run(stage, collAllReduce, ready, c.localPass(size))
	}
	wire := c.wireTime(size, 2*float64(n-1)/float64(n), 2*(n-1))
	return c.run(stage, collAllReduce, ready, wire)
}

// Broadcast sends size bytes from the root to all ranks (pipelined ring
// copy: each rank forwards chunks as they arrive).
func (c *Communicator) Broadcast(stage profiler.Stage, size units.Bytes, root topology.NodeID, ready time.Duration) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.run(stage, collBroadcast, ready, c.localPass(size)/2)
	}
	wire := c.wireTime(size, 1, n-1)
	return c.run(stage, collBroadcast, ready, wire)
}

// Reduce reduces size bytes from all ranks onto the root.
func (c *Communicator) Reduce(stage profiler.Stage, size units.Bytes, root topology.NodeID, ready time.Duration) time.Duration {
	n := len(c.devs)
	if n == 1 {
		return c.run(stage, collReduce, ready, c.localPass(size)/2)
	}
	wire := c.wireTime(size, 1, n-1)
	return c.run(stage, collReduce, ready, wire)
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
