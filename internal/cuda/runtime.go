// Package cuda models the CUDA runtime surface the training frameworks sit
// on: per-device host worker threads that pay per-API-call costs
// (cudaLaunchKernel, cudaMemcpyAsync, cudaStreamSynchronize), streams whose
// operations execute in order on device queues, and peer-to-peer memory
// copies routed over the interconnect fabric. Every call is accounted into
// a profiler.Profile, which is how the paper's CUDA-API overhead analysis
// (its Table III) is reproduced.
package cuda

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// API names used in profiles, matching the CUDA runtime entry points nvprof
// reports.
const (
	APILaunchKernel = "cudaLaunchKernel"
	APIMemcpyAsync  = "cudaMemcpyAsync"
	APIStreamSync   = "cudaStreamSynchronize"
)

// Costs are the host-side fixed costs of runtime calls.
type Costs struct {
	// LaunchKernel is the CPU time to enqueue one kernel.
	LaunchKernel time.Duration
	// MemcpyAsync is the CPU time to enqueue one async copy.
	MemcpyAsync time.Duration
	// StreamSyncOverhead is the fixed cost of a stream synchronize beyond
	// the time spent blocked waiting for the device.
	StreamSyncOverhead time.Duration
}

// DefaultCosts returns launch/copy/sync costs representative of CUDA 9 on
// a Xeon-class host.
func DefaultCosts() Costs {
	return Costs{
		LaunchKernel:       4 * time.Microsecond,
		MemcpyAsync:        6 * time.Microsecond,
		StreamSyncOverhead: 8 * time.Microsecond,
	}
}

// Kernel is one launchable kernel lowered for a device spec: its profile
// name, its execution time on that spec (gpu.Spec.KernelDuration,
// computed once at lowering rather than on every launch), and its slot in
// the runtime's profile.
type Kernel struct {
	Name string
	Dur  time.Duration
	Slot profiler.Slot
}

// label is an interned profile name.
type label struct {
	name string
	slot profiler.Slot
}

// copyPath is one cached copy direction: its routed path (or the routing
// error, which is just as deterministic) and its interned transfer labels.
type copyPath struct {
	path   topology.Path
	err    error
	memcpy label  // e.g. "memcpyP2P S->D"
	xfer   string // the transfer's track, e.g. "xfer S->D"
}

// device is the runtime's state for one managed GPU: the device model,
// its two host worker threads, its interned track labels, and its cached
// PCIe copy paths. Every kernel launch, API call and transfer records one
// of these labels; formatting them per call used to dominate the
// simulation's allocation profile, so they are built once per device.
type device struct {
	dev           *gpu.Device
	host, engine  *sim.Resource
	hostTrack     string // host-thread tracks
	engineTrack   string
	compute, comm string // device-queue tracks
	// h2d and d2h are the PCIe copy paths from and to the host CPU,
	// resolved on first use.
	h2d, d2h *copyPath
}

// Runtime binds devices, host threads, the fabric, and a profile.
type Runtime struct {
	eng    *sim.Engine
	fabric *interconnect.Fabric
	// devs is indexed by NodeID; entries for nodes the runtime does not
	// manage are nil.
	devs   []*device
	ids    []topology.NodeID // managed GPUs, ascending
	prof   *profiler.Profile
	costs  Costs
	policy topology.RoutePolicy
	cpuRes map[string]*sim.Resource

	launch, memcpy, sync label // the API entry points' profile labels

	// peers caches routed peer copies per (policy, src, dst), indexed
	// (policy*nodes+src)*nodes+dst and filled on first use; nodes spans
	// the topology's node IDs.
	peers []*copyPath
	nodes int
}

// NewRuntime creates devices and host threads for the listed GPUs. prof may
// be nil to disable accounting.
func NewRuntime(fabric *interconnect.Fabric, spec gpu.Spec, gpus []topology.NodeID, costs Costs, prof *profiler.Profile) (*Runtime, error) {
	return NewRuntimeWithSpecs(fabric, spec, nil, gpus, costs, prof)
}

// NewRuntimeWithSpecs is NewRuntime with per-device spec overrides:
// devices listed in specs use their entry, the rest use def. Fault plans
// use it to model straggler GPUs — a heterogeneous node where one device
// runs every kernel slower than its peers.
func NewRuntimeWithSpecs(fabric *interconnect.Fabric, def gpu.Spec, specs map[topology.NodeID]gpu.Spec, gpus []topology.NodeID, costs Costs, prof *profiler.Profile) (*Runtime, error) {
	top := fabric.Topology()
	rt := &Runtime{
		eng:    fabric.Engine(),
		fabric: fabric,
		prof:   prof,
		costs:  costs,
		policy: topology.RouteStagedNVLink,
		nodes:  top.NumNodes(),
	}
	rt.launch = rt.label(profiler.KindAPI, APILaunchKernel)
	rt.memcpy = rt.label(profiler.KindAPI, APIMemcpyAsync)
	rt.sync = rt.label(profiler.KindAPI, APIStreamSync)
	for _, id := range gpus {
		n, err := top.Node(id)
		if err != nil {
			return nil, err
		}
		if n.Kind != topology.GPU {
			return nil, fmt.Errorf("cuda: node %d is a %s, not a GPU", id, n.Kind)
		}
		spec := def
		if s, ok := specs[id]; ok {
			spec = s
		}
		d := &device{
			dev:         gpu.NewDevice(rt.eng, id, spec),
			hostTrack:   fmt.Sprintf("GPU%d/host", id),
			engineTrack: fmt.Sprintf("GPU%d/engine", id),
		}
		d.compute, d.comm = d.dev.QueueNames()
		d.host = sim.NewResource(rt.eng, d.hostTrack)
		d.engine = sim.NewResource(rt.eng, d.engineTrack)
		if int(id) >= len(rt.devs) {
			rt.devs = append(rt.devs, make([]*device, int(id)+1-len(rt.devs))...)
		}
		if rt.devs[id] == nil {
			rt.ids = append(rt.ids, id)
		}
		rt.devs[id] = d
	}
	slices.Sort(rt.ids)
	return rt, nil
}

// hostPath returns a GPU's cached PCIe copy path to (toGPU) or from its
// host CPU, with the transfer's labels, resolving it on first use.
func (rt *Runtime) hostPath(d *device, toGPU bool) *copyPath {
	cached := &d.d2h
	if toGPU {
		cached = &d.h2d
	}
	if *cached == nil {
		*cached = rt.resolveHostPath(d.dev.ID, toGPU)
	}
	return *cached
}

// resolveHostPath routes a GPU's PCIe copy to or from its host CPU.
func (rt *Runtime) resolveHostPath(id topology.NodeID, toGPU bool) *copyPath {
	c := &copyPath{}
	if toGPU {
		c.memcpy = rt.label(profiler.KindTransfer, fmt.Sprintf("memcpyHtoD ->%d", id))
		c.xfer = fmt.Sprintf("xfer H->%d", id)
	} else {
		c.memcpy = rt.label(profiler.KindTransfer, fmt.Sprintf("memcpyDtoH %d->", id))
		c.xfer = fmt.Sprintf("xfer %d->H", id)
	}
	top := rt.fabric.Topology()
	host, err := top.HostCPU(id)
	if err != nil {
		c.err = err
		return c
	}
	link := top.DirectLink(id, host, topology.PCIe)
	if link == nil {
		c.err = fmt.Errorf("cuda: GPU %d has no PCIe link", id)
		return c
	}
	hop := topology.Hop{Link: link, From: id, To: host}
	if toGPU {
		hop = topology.Hop{Link: link, From: host, To: id}
	}
	c.path = topology.Path{Hops: []topology.Hop{hop}}
	return c
}

// label interns a profile name (a nil profile records nothing, so any
// slot will do).
func (rt *Runtime) label(k profiler.Kind, name string) label {
	l := label{name: name, slot: profiler.NoSlot}
	if rt.prof != nil {
		l.slot = rt.prof.Intern(k, name)
	}
	return l
}

// NewKernel interns a kernel name in the runtime's profile and pairs it
// with its execution time.
func (rt *Runtime) NewKernel(name string, dur time.Duration) Kernel {
	l := rt.label(profiler.KindKernel, name)
	return Kernel{Name: name, Dur: dur, Slot: l.slot}
}

// Lower appends a kernel plan, lowered for devices of one spec, to dst and
// returns the extended launch table: each entry's duration is computed
// once here instead of on every launch of every device in every
// iteration.
func (rt *Runtime) Lower(dst []Kernel, spec gpu.Spec, plan []gpu.KernelCost) []Kernel {
	if dst == nil {
		dst = make([]Kernel, 0, len(plan))
	}
	for _, c := range plan {
		dst = append(dst, rt.NewKernel(c.Name, spec.KernelDuration(c)))
	}
	return dst
}

// state returns the runtime's state for a GPU, or nil if it does not
// manage that node.
func (rt *Runtime) state(id topology.NodeID) *device {
	if id < 0 || int(id) >= len(rt.devs) {
		return nil
	}
	return rt.devs[id]
}

// peer returns the cached route and labels of one src->dst copy under the
// current policy. IDs outside [0, nodes) are routed afresh every time.
func (rt *Runtime) peer(src, dst topology.NodeID) *copyPath {
	i := -1
	if src >= 0 && dst >= 0 && int(src) < rt.nodes && int(dst) < rt.nodes {
		pol := 0
		if rt.policy != topology.RouteStagedNVLink {
			pol = 1
		}
		if rt.peers == nil {
			rt.peers = make([]*copyPath, 2*rt.nodes*rt.nodes)
		}
		i = (pol*rt.nodes+int(src))*rt.nodes + int(dst)
		if c := rt.peers[i]; c != nil {
			return c
		}
	}
	path, err := rt.fabric.Topology().Route(src, dst, rt.policy)
	c := &copyPath{
		path:   path,
		err:    err,
		memcpy: rt.label(profiler.KindTransfer, fmt.Sprintf("memcpyP2P %d->%d", src, dst)),
		xfer:   fmt.Sprintf("xfer %d->%d", src, dst),
	}
	if i >= 0 {
		rt.peers[i] = c
	}
	return c
}

// SetRoutePolicy selects how peer copies without a direct NVLink are routed
// (staged NVLink by default; PCIe fallback reproduces naive behaviour).
func (rt *Runtime) SetRoutePolicy(p topology.RoutePolicy) { rt.policy = p }

// Device returns the device model for a GPU (nil if not managed).
func (rt *Runtime) Device(id topology.NodeID) *gpu.Device {
	if d := rt.state(id); d != nil {
		return d.dev
	}
	return nil
}

// Devices returns the IDs of all GPUs managed by the runtime, ascending.
func (rt *Runtime) Devices() []topology.NodeID {
	return append([]topology.NodeID(nil), rt.ids...)
}

// Fabric returns the interconnect.
func (rt *Runtime) Fabric() *interconnect.Fabric { return rt.fabric }

// Profile returns the profile (may be nil).
func (rt *Runtime) Profile() *profiler.Profile { return rt.prof }

// record adds an interval under its interned slot when profiling is
// enabled.
func (rt *Runtime) record(slot profiler.Slot, iv profiler.Interval) {
	if rt.prof != nil {
		rt.prof.RecordSlot(slot, iv)
	}
}

// hostCall books a host-API call on one of the device's worker threads.
// The framework uses distinct threads for kernel launching and for
// dependency-engine communication issue (MXNet's engine workers); engine
// selects the latter, so communication issue does not serialize behind the
// launch loop.
func (rt *Runtime) hostCall(d *device, api label, stage profiler.Stage, ready time.Duration, dur time.Duration, engine bool) (start, end time.Duration) {
	res, track := d.host, d.hostTrack
	if engine {
		res, track = d.engine, d.engineTrack
	}
	start, end = res.Book(ready, dur)
	rt.record(api.slot, profiler.Interval{
		Kind: profiler.KindAPI, Name: api.name, Stage: stage,
		Track: track, Start: start, End: end,
	})
	return start, end
}

// BookKernel runs k on a device's compute queue (its communication queue
// when comm is set) from ready, without a host launch: device work the
// framework's engine enqueues on its own, such as the kvstore's weight
// update.
func (rt *Runtime) BookKernel(dev topology.NodeID, comm bool, stage profiler.Stage, k Kernel, ready time.Duration) (start, end time.Duration) {
	d := rt.devs[dev]
	track := d.compute
	if comm {
		start, end = d.dev.BookCommKernel(ready, k.Dur)
		track = d.comm
	} else {
		start, end = d.dev.BookKernel(ready, k.Dur)
	}
	rt.record(k.Slot, profiler.Interval{
		Kind: profiler.KindKernel, Name: k.Name, Stage: stage,
		Track: track, Start: start, End: end,
	})
	return start, end
}

// Stream is an in-order device work queue handle.
type Stream struct {
	rt   *Runtime
	d    *device
	name string
	tail time.Duration
	comm bool
}

// Stream creates a compute stream on the device.
func (rt *Runtime) Stream(dev topology.NodeID, name string) *Stream {
	return &Stream{rt: rt, d: rt.devs[dev], name: name}
}

// CommStream creates a stream whose kernels run on the device's
// communication queue, overlapping compute (as NCCL's do).
func (rt *Runtime) CommStream(dev topology.NodeID, name string) *Stream {
	s := rt.Stream(dev, name)
	s.comm = true
	return s
}

// Device returns the stream's device.
func (s *Stream) Device() *gpu.Device { return s.d.dev }

// Tail returns the completion time of the last operation issued.
func (s *Stream) Tail() time.Duration { return s.tail }

// WaitEvent raises the stream's tail to at least tm without occupying any
// resource — cudaStreamWaitEvent semantics, used to gate a stream on a
// dependency completed elsewhere (e.g. staged input data).
func (s *Stream) WaitEvent(tm time.Duration) {
	if tm > s.tail {
		s.tail = tm
	}
}

// Launch enqueues a kernel: the host pays the launch cost starting at
// hostReady; the kernel executes for k.Dur after both the launch and the
// stream's previous work complete. It returns when the host call finishes
// and when the kernel finishes.
func (s *Stream) Launch(stage profiler.Stage, k Kernel, hostReady time.Duration) (hostDone, kernelEnd time.Duration) {
	_, hostDone = s.rt.hostCall(s.d, s.rt.launch, stage, hostReady, s.rt.costs.LaunchKernel, s.comm)
	ready := hostDone
	if s.tail > ready {
		ready = s.tail
	}
	var start, end time.Duration
	track := s.d.compute
	if s.comm {
		start, end = s.d.dev.BookCommKernel(ready, k.Dur)
		track = s.d.comm
	} else {
		start, end = s.d.dev.BookKernel(ready, k.Dur)
	}
	s.rt.record(k.Slot, profiler.Interval{
		Kind: profiler.KindKernel, Name: k.Name, Stage: stage,
		Track: track, Start: start, End: end,
	})
	s.tail = end
	return hostDone, end
}

// HostLaunch books only the host-side cudaLaunchKernel cost (used by
// collective models that compute device occupancy themselves) and returns
// when the host call completes.
func (s *Stream) HostLaunch(stage profiler.Stage, hostReady time.Duration) time.Duration {
	_, end := s.rt.hostCall(s.d, s.rt.launch, stage, hostReady, s.rt.costs.LaunchKernel, s.comm)
	return end
}

// Extend occupies the stream from max(its tail, ready) until at least
// `until`, recording the window as kernel k (whose Dur is ignored).
// Collectives use it to make every rank's queue busy until the global
// completion of the operation. It returns the stream's new tail.
func (s *Stream) Extend(stage profiler.Stage, k Kernel, ready, until time.Duration) time.Duration {
	start := s.tail
	if ready > start {
		start = ready
	}
	dur := until - start
	if dur < 0 {
		dur = 0
	}
	var bs, be time.Duration
	if s.comm {
		bs, be = s.d.dev.BookCommKernel(start, dur)
	} else {
		bs, be = s.d.dev.BookDMA(start, dur)
	}
	s.rt.record(k.Slot, profiler.Interval{
		Kind: profiler.KindKernel, Name: k.Name, Stage: stage,
		Track: s.d.comm, Start: bs, End: be,
	})
	s.tail = be
	return be
}

// Synchronize blocks the host thread from hostReady until the stream
// drains, plus a fixed overhead; the blocked window is recorded as
// cudaStreamSynchronize (as nvprof accounts it). It returns when the host
// resumes.
func (s *Stream) Synchronize(stage profiler.Stage, hostReady time.Duration) time.Duration {
	return s.rt.block(s.d, s.comm, stage, hostReady, s.tail)
}

// HostWait blocks the device's launch thread from hostReady until target
// (a dependency completion such as "all weights pulled"), recording the
// blocked window as cudaStreamSynchronize — how nvprof accounts the
// framework's WaitToRead. It returns when the host resumes.
func (rt *Runtime) HostWait(dev topology.NodeID, stage profiler.Stage, hostReady, target time.Duration) time.Duration {
	return rt.block(rt.devs[dev], false, stage, hostReady, target)
}

// block books a cudaStreamSynchronize on one of the device's threads (the
// engine thread when engine is set) from hostReady until target plus the
// fixed overhead, and returns when the host resumes.
func (rt *Runtime) block(d *device, engine bool, stage profiler.Stage, hostReady, target time.Duration) time.Duration {
	wait := target
	if wait < hostReady {
		wait = hostReady
	}
	_, end := rt.hostCall(d, rt.sync, stage, hostReady, wait-hostReady+rt.costs.StreamSyncOverhead, engine)
	return end
}

// MemcpyPeer enqueues an async device-to-device copy of size bytes from
// src to dst: the destination's engine thread pays the memcpy-API cost at
// hostReady (MXNet's CopyFromTo runs on the destination context's worker);
// the wire transfer begins once the API call completes and the source data
// is ready (dataReady); multi-hop routes are store-and-forward per the
// fabric. The source's copy engine is occupied for the transfer duration,
// so a GPU fanning out to many peers serializes on its DMA engine even
// when the links are distinct — the exposure the paper observes when GPU0
// broadcasts updated weights. It returns the host-call end and the copy's
// arrival time.
func (rt *Runtime) MemcpyPeer(dst, src topology.NodeID, size units.Bytes, stage profiler.Stage, hostReady, dataReady time.Duration) (hostDone, end time.Duration, err error) {
	pc := rt.peer(src, dst)
	if pc.err != nil {
		return 0, 0, pc.err
	}
	issuer := rt.state(dst)
	if issuer == nil {
		issuer = rt.devs[src]
	}
	_, hostDone = rt.hostCall(issuer, rt.memcpy, stage, hostReady, rt.costs.MemcpyAsync, true)
	ready := hostDone
	if dataReady > ready {
		ready = dataReady
	}
	start, end := rt.fabric.Book(pc.path, size, ready)
	if d := rt.state(src); d != nil {
		if _, dmaEnd := d.dev.BookDMA(start, end-start); dmaEnd > end {
			end = dmaEnd
		}
	}
	rt.recordCopy(pc, stage, start, end)
	return hostDone, end, nil
}

// recordCopy records one transfer on its cached labels.
func (rt *Runtime) recordCopy(c *copyPath, stage profiler.Stage, start, end time.Duration) {
	rt.record(c.memcpy.slot, profiler.Interval{
		Kind: profiler.KindTransfer, Name: c.memcpy.name,
		Stage: stage, Track: c.xfer,
		Start: start, End: end,
	})
}

// MemcpyHostToDevice enqueues a host-to-device copy over the GPU's PCIe
// link (training-data staging).
func (rt *Runtime) MemcpyHostToDevice(dst topology.NodeID, size units.Bytes, stage profiler.Stage, hostReady time.Duration) (hostDone, end time.Duration, err error) {
	d := rt.devs[dst]
	c := rt.hostPath(d, true)
	if c.err != nil {
		return 0, 0, c.err
	}
	_, hostDone = rt.hostCall(d, rt.memcpy, stage, hostReady, rt.costs.MemcpyAsync, true)
	start, end := rt.fabric.Book(c.path, size, hostDone)
	rt.recordCopy(c, stage, start, end)
	return hostDone, end, nil
}

// MemcpyDeviceToHost enqueues a device-to-host copy over the GPU's PCIe
// link (gradient upload for a CPU parameter server).
func (rt *Runtime) MemcpyDeviceToHost(src topology.NodeID, size units.Bytes, stage profiler.Stage, hostReady, dataReady time.Duration) (hostDone, end time.Duration, err error) {
	d := rt.devs[src]
	c := rt.hostPath(d, false)
	if c.err != nil {
		return 0, 0, c.err
	}
	_, hostDone = rt.hostCall(d, rt.memcpy, stage, hostReady, rt.costs.MemcpyAsync, true)
	ready := hostDone
	if dataReady > ready {
		ready = dataReady
	}
	start, end := rt.fabric.Book(c.path, size, ready)
	rt.recordCopy(c, stage, start, end)
	return hostDone, end, nil
}

// CPUWork books dur of computation on the named CPU-side resource (the
// parameter-server update loop of MXNet's "local" kvstore), creating the
// resource on first use.
func (rt *Runtime) CPUWork(name string, stage profiler.Stage, ready time.Duration, dur time.Duration) (start, end time.Duration) {
	res := rt.cpuRes[name]
	if res == nil {
		if rt.cpuRes == nil {
			rt.cpuRes = map[string]*sim.Resource{}
		}
		res = sim.NewResource(rt.eng, name)
		rt.cpuRes[name] = res
	}
	start, end = res.Book(ready, dur)
	rt.record(profiler.NoSlot, profiler.Interval{
		Kind: profiler.KindMarker, Name: name, Stage: stage,
		Track: name, Start: start, End: end,
	})
	return start, end
}

// Route exposes the runtime's routed path between two GPUs under its
// current policy (used by the communication backends for cost planning).
func (rt *Runtime) Route(src, dst topology.NodeID) (topology.Path, error) {
	pc := rt.peer(src, dst)
	return pc.path, pc.err
}

// Costs returns the runtime's host API costs.
func (rt *Runtime) Costs() Costs { return rt.costs }
