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
	"strconv"
	"sync/atomic"
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

// Run is a lowered run of kernels that one stream launches back to back,
// with nothing else booked on its host thread or device queue between
// the launches, summarized so Stream.LaunchRun books it in O(1): kernel j
// records under profile slot Slots[j] and executes for Durs[j]. The two
// halves are separate so that a kernel plan's slots, which depend only on
// the plan, and its durations, which depend on the device spec, can each
// be stored once and shared.
type Run struct {
	Slots []profiler.Slot
	Durs  []time.Duration
	RunSum
}

// RunSum is a run's closed form for one launch cost L, the launch cost of
// the runtime that launches the run. With kernels numbered j = 1..n in
// launch order:
//
//	sum  = Σ_j Dur_j
//	crit = max_j (j·L + Σ_{i≥j} Dur_i)
//
// crit is the longest launch-then-execute chain through the run: kernel
// j cannot start before its own launch, j·L after the host thread
// starts, and everything after it executes back to back.
type RunSum struct {
	sum, crit time.Duration
}

// Sum is the run's total kernel time.
func (r RunSum) Sum() time.Duration { return r.sum }

// Summarize returns the closed form of kernels executing for durs, in
// order, when each launch costs launch.
func Summarize(durs []time.Duration, launch time.Duration) RunSum {
	var r RunSum
	for j := len(durs); j > 0; j-- {
		r.sum += durs[j-1]
		r.crit = max(r.crit, time.Duration(j)*launch+r.sum)
	}
	return r
}

// label is an interned profile name.
type label struct {
	name string
	slot profiler.Slot
}

// copyLabels are one copy direction's transfer labels.
type copyLabels struct {
	memcpy label  // e.g. "memcpyP2P S->D"; its slot is in the layout's transfer names
	xfer   string // the transfer's track, e.g. "xfer S->D"
}

// copyPath is one copy direction: its routed path (or the routing error,
// which is just as deterministic) and its transfer labels.
type copyPath struct {
	route
	copyLabels
}

// route is a routed copy path or the routing error.
type route struct {
	path topology.Path
	err  error
}

// peerPath is one peer copy direction between managed GPUs: its labels,
// and its staged-NVLink route, routed on first use. Routing is a pure
// function of the topology, so whichever concurrent first use stores its
// route, every runtime reads the same one.
type peerPath struct {
	copyLabels
	route atomic.Pointer[route]
}

// deviceLayout names one managed GPU's tracks and holds its PCIe copy
// paths to (h2d) and from (d2h) its host CPU.
type deviceLayout struct {
	id                      topology.NodeID
	hostTrack, engineTrack  string // host-thread tracks
	computeTrack, commTrack string // device-queue tracks
	h2d, d2h                copyPath
}

// Layout is the immutable half of a runtime: everything about a machine
// and a set of managed GPUs that no booking changes. It holds every
// device's host-thread and queue track names, the PCIe copy paths between
// each GPU and its host, the peer copy paths between managed GPUs, and the
// transfer names all those copies record under. One Layout serves any
// number of runtimes, on any goroutines: each Runtime made from it
// (Layout.NewRuntime) books on its own zeroed slab of devices and host
// threads. Every kernel launch, API call and transfer records one of the
// layout's labels, so no name is formatted per call or per runtime.
type Layout struct {
	top *topology.Topology
	// devs is indexed like the GPUs the layout was made for (slab
	// order); index maps a NodeID to its position, -1 for nodes the
	// layout does not manage, and spans the topology's node IDs.
	devs  []deviceLayout
	index []int
	// peers[i*len(devs)+j] is the copy from devs[i] to devs[j].
	peers     []peerPath
	transfers *profiler.Names
}

// APINames are the API entry points' profile names, at fixed slots: seed
// a profile's API table with them (profiler.Seeds.APIs).
var APINames = profiler.NewNames([]string{APILaunchKernel, APIMemcpyAsync, APIStreamSync})

// NewLayout lays out the listed GPUs of a topology (a repeated ID counts
// once).
func NewLayout(top *topology.Topology, gpus []topology.NodeID) (*Layout, error) {
	lay := &Layout{top: top, index: make([]int, top.NumNodes())}
	for i := range lay.index {
		lay.index[i] = -1
	}
	var managed []topology.NodeID
	for _, id := range gpus {
		n, err := top.Node(id)
		if err != nil {
			return nil, err
		}
		if n.Kind != topology.GPU {
			return nil, fmt.Errorf("cuda: node %d is a %s, not a GPU", id, n.Kind)
		}
		for int(id) >= len(lay.index) {
			lay.index = append(lay.index, -1)
		}
		if lay.index[id] < 0 {
			lay.index[id] = len(managed)
			managed = append(managed, id)
		}
	}
	// Every name, cut from one buffer.
	var nb nameBuf
	n := len(managed)
	for _, id := range managed {
		nb.add("GPU", int(id), "/host", -1)
		nb.add("GPU", int(id), "/engine", -1)
		nb.add("GPU", int(id), "/compute", -1)
		nb.add("GPU", int(id), "/comm", -1)
		nb.add("memcpyHtoD ->", int(id), "", -1)
		nb.add("xfer H->", int(id), "", -1)
		nb.add("memcpyDtoH ", int(id), "->", -1)
		nb.add("xfer ", int(id), "->H", -1)
	}
	for _, src := range managed {
		for _, dst := range managed {
			if src != dst {
				nb.add("memcpyP2P ", int(src), "->", int(dst))
				nb.add("xfer ", int(src), "->", int(dst))
			}
		}
	}
	names := nb.strings()
	transfers := make([]string, 0, n*(n+1))
	lay.devs = make([]deviceLayout, n)
	hops := make([]topology.Hop, 2*n)
	for i, id := range managed {
		d := &lay.devs[i]
		at := names[8*i:]
		d.id = id
		d.hostTrack, d.engineTrack, d.computeTrack, d.commTrack = at[0], at[1], at[2], at[3]
		d.h2d.memcpy.name, d.h2d.xfer, d.d2h.memcpy.name, d.d2h.xfer = at[4], at[5], at[6], at[7]
		d.h2d.route, d.d2h.route = hostRoutes(top, id, hops[2*i:2*i+2:2*i+2])
		d.h2d.memcpy.slot = profiler.Slot(len(transfers))
		d.d2h.memcpy.slot = profiler.Slot(len(transfers) + 1)
		transfers = append(transfers, d.h2d.memcpy.name, d.d2h.memcpy.name)
	}
	// A copy from a GPU to itself does not route, so it has no names.
	lay.peers = make([]peerPath, n*n)
	at := names[8*n:]
	for i := range lay.peers {
		p := &lay.peers[i]
		if i/n == i%n {
			p.memcpy.slot = profiler.NoSlot
			continue
		}
		p.memcpy.name, p.xfer, at = at[0], at[1], at[2:]
		p.memcpy.slot = profiler.Slot(len(transfers))
		transfers = append(transfers, p.memcpy.name)
	}
	lay.transfers = profiler.NewNames(transfers)
	return lay, nil
}

// hostRoutes routes a GPU's PCIe copies to (h2d) and from (d2h) its host
// CPU, over the two hops given.
func hostRoutes(top *topology.Topology, id topology.NodeID, hops []topology.Hop) (h2d, d2h route) {
	host, err := top.HostCPU(id)
	if err != nil {
		return route{err: err}, route{err: err}
	}
	link := top.DirectLink(id, host, topology.PCIe)
	if link == nil {
		err := fmt.Errorf("cuda: GPU %d has no PCIe link", id)
		return route{err: err}, route{err: err}
	}
	hops[0] = topology.Hop{Link: link, From: host, To: id}
	hops[1] = topology.Hop{Link: link, From: id, To: host}
	return route{path: topology.Path{Hops: hops[0:1:1]}}, route{path: topology.Path{Hops: hops[1:2:2]}}
}

// nameBuf cuts many short names from one string, so a layout's names
// cost one allocation. Each name is a prefix, a decimal number, a middle
// and an optional second number (omitted when negative).
type nameBuf struct {
	buf  []byte
	ends []int
}

func (b *nameBuf) add(prefix string, a int, middle string, c int) {
	b.buf = append(b.buf, prefix...)
	b.buf = strconv.AppendInt(b.buf, int64(a), 10)
	b.buf = append(b.buf, middle...)
	if c >= 0 {
		b.buf = strconv.AppendInt(b.buf, int64(c), 10)
	}
	b.ends = append(b.ends, len(b.buf))
}

// strings returns the names in the order added.
func (b *nameBuf) strings() []string {
	all := string(b.buf)
	out := make([]string, len(b.ends))
	lo := 0
	for i, hi := range b.ends {
		out[i] = all[lo:hi]
		lo = hi
	}
	return out
}

// Transfers returns the transfer names the layout's copies record under,
// at their slots: seed a runtime's profile with them
// (profiler.Seeds.Transfers).
func (lay *Layout) Transfers() *profiler.Names { return lay.transfers }

// device is a runtime's state for one managed GPU: the device model with
// its queues, and its two host worker threads.
type device struct {
	lay          *deviceLayout
	dev          gpu.Device
	host, engine sim.Resource
}

// Runtime binds devices, host threads, the fabric, and a profile.
type Runtime struct {
	lay    *Layout
	fabric *interconnect.Fabric
	// devs is the runtime's slab, indexed like lay.devs.
	devs  []device
	prof  *profiler.Profile
	costs Costs
	// cpu holds the CPU-side resources CPUWork books, in order of first
	// use.
	cpu []cpuResource
	// streams holds every stream slice the runtime made (Streams), whose
	// tails join the runtime's state; streamBuf is its first backing
	// array, enough for a trainer's compute streams and two gangs.
	streams   [][]Stream
	streamBuf [3][]Stream

	launch, memcpy, sync label // the API entry points' profile labels
	// seeded reports that the profile's transfer table was seeded with
	// the layout's transfer names, so the layout's slots are the
	// profile's.
	seeded bool
}

// NewRuntime creates devices and host threads for the listed GPUs. prof may
// be nil to disable accounting.
func NewRuntime(fabric *interconnect.Fabric, spec gpu.Spec, gpus []topology.NodeID, costs Costs, prof *profiler.Profile) (*Runtime, error) {
	lay, err := NewLayout(fabric.Topology(), gpus)
	if err != nil {
		return nil, err
	}
	return lay.NewRuntime(fabric, spec, nil, costs, prof), nil
}

// NewRuntime creates a runtime over the layout's GPUs, booking on fabric
// (a fabric over the layout's topology): its devices and host threads are
// one zeroed slab. Devices listed in specs use their entry, the rest use
// def. prof may be nil to disable accounting; a profile seeded with
// APINames and the layout's Transfers records without interning a name.
func (lay *Layout) NewRuntime(fabric *interconnect.Fabric, def gpu.Spec, specs map[topology.NodeID]gpu.Spec, costs Costs, prof *profiler.Profile) *Runtime {
	rt := &Runtime{
		lay:    lay,
		fabric: fabric,
		devs:   make([]device, len(lay.devs)),
		prof:   prof,
		costs:  costs,
		seeded: prof != nil && prof.Seeded(profiler.KindTransfer) == lay.transfers,
	}
	rt.streams = rt.streamBuf[:0]
	rt.launch = rt.label(profiler.KindAPI, APILaunchKernel)
	rt.memcpy = rt.label(profiler.KindAPI, APIMemcpyAsync)
	rt.sync = rt.label(profiler.KindAPI, APIStreamSync)
	for i := range rt.devs {
		d := &rt.devs[i]
		d.lay = &lay.devs[i]
		d.dev.ID, d.dev.Spec = d.lay.id, def
		if s, ok := specs[d.lay.id]; ok {
			d.dev.Spec = s
		}
	}
	return rt
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

// state returns the runtime's state for a GPU, or nil if it does not
// manage that node.
func (rt *Runtime) state(id topology.NodeID) *device {
	if id < 0 || int(id) >= len(rt.lay.index) || rt.lay.index[id] < 0 {
		return nil
	}
	return &rt.devs[rt.lay.index[id]]
}

// peer returns the route and labels of one src->dst copy, routed over
// staged NVLink, read in place. A copy between managed GPUs takes the
// layout's labels and its route, routed once per layout; any other is
// routed and named afresh every time.
func (rt *Runtime) peer(src, dst topology.NodeID) (*route, *copyLabels) {
	s, d := rt.state(src), rt.state(dst)
	if s == nil || d == nil {
		path, err := rt.lay.top.Route(src, dst, topology.RouteStagedNVLink)
		return &route{path: path, err: err}, &copyLabels{
			memcpy: label{name: fmt.Sprintf("memcpyP2P %d->%d", src, dst), slot: profiler.NoSlot},
			xfer:   fmt.Sprintf("xfer %d->%d", src, dst),
		}
	}
	p := &rt.lay.peers[rt.lay.index[src]*len(rt.devs)+rt.lay.index[dst]]
	r := p.route.Load()
	if r == nil {
		path, err := rt.lay.top.Route(src, dst, topology.RouteStagedNVLink)
		// A runtime that routed it first stored the same route.
		p.route.CompareAndSwap(nil, &route{path: path, err: err})
		r = p.route.Load()
	}
	return r, &p.copyLabels
}

// Device returns the device model for a GPU (nil if not managed).
func (rt *Runtime) Device(id topology.NodeID) *gpu.Device {
	if d := rt.state(id); d != nil {
		return &d.dev
	}
	return nil
}

// Fabric returns the interconnect.
func (rt *Runtime) Fabric() *interconnect.Fabric { return rt.fabric }

// count adds one activity of kind k from start to end under its interned
// slot to an aggregate-only profile's aggregates, and reports whether the
// caller must record it as an interval instead (profiler.RecordSlot),
// which a Detailed profile retains. Without a profile it records nothing.
func (rt *Runtime) count(k profiler.Kind, slot profiler.Slot, start, end time.Duration) (detailed bool) {
	p := rt.prof
	if p == nil {
		return false
	}
	if p.Detailed() {
		return true
	}
	if slot >= 0 {
		p.AddSlot(k, slot, 1, end-start)
	}
	return false
}

// hostCall books a host-API call on one of the device's worker threads.
// The framework uses distinct threads for kernel launching and for
// dependency-engine communication issue (MXNet's engine workers); engine
// selects the latter, so communication issue does not serialize behind the
// launch loop.
func (rt *Runtime) hostCall(d *device, api label, stage profiler.Stage, ready time.Duration, dur time.Duration, engine bool) (start, end time.Duration) {
	res, track := &d.host, d.lay.hostTrack
	if engine {
		res, track = &d.engine, d.lay.engineTrack
	}
	start, end = res.Book(ready, dur)
	if rt.count(profiler.KindAPI, api.slot, start, end) {
		rt.prof.RecordSlot(api.slot, profiler.Interval{
			Kind: profiler.KindAPI, Name: api.name, Stage: stage,
			Track: track, Start: start, End: end,
		})
	}
	return start, end
}

// BookKernel runs k on a device's compute queue (its communication queue
// when comm is set) from ready, without a host launch: device work the
// framework's engine enqueues on its own, such as the kvstore's weight
// update.
func (rt *Runtime) BookKernel(dev topology.NodeID, comm bool, stage profiler.Stage, k Kernel, ready time.Duration) (start, end time.Duration) {
	d := rt.state(dev)
	track := d.lay.computeTrack
	if comm {
		start, end = d.dev.BookCommKernel(ready, k.Dur)
		track = d.lay.commTrack
	} else {
		start, end = d.dev.BookKernel(ready, k.Dur)
	}
	if rt.count(profiler.KindKernel, k.Slot, start, end) {
		rt.prof.RecordSlot(k.Slot, profiler.Interval{
			Kind: profiler.KindKernel, Name: k.Name, Stage: stage,
			Track: track, Start: start, End: end,
		})
	}
	return start, end
}

// Stream is an in-order device work queue handle.
type Stream struct {
	rt   *Runtime
	d    *device
	tail time.Duration
	comm bool
}

// Stream creates a compute stream on the device.
func (rt *Runtime) Stream(dev topology.NodeID) *Stream {
	return &rt.Streams([]topology.NodeID{dev}, false)[0]
}

// CommStream creates a stream whose kernels run on the device's
// communication queue, overlapping compute (as NCCL's do).
func (rt *Runtime) CommStream(dev topology.NodeID) *Stream {
	s := rt.Stream(dev)
	s.comm = true
	return s
}

// Streams creates one stream per device, in order, in one slice: compute
// streams, or communication streams when comm is set. The runtime keeps
// the slice, so the streams' tails join its state (AppendState).
func (rt *Runtime) Streams(devs []topology.NodeID, comm bool) []Stream {
	out := make([]Stream, len(devs))
	for i, d := range devs {
		out[i] = Stream{rt: rt, d: rt.state(d), comm: comm}
	}
	rt.streams = append(rt.streams, out)
	return out
}

// StateLen returns how many times AppendState appends.
func (rt *Runtime) StateLen() int {
	n := 6*len(rt.devs) + rt.fabric.Directions() + len(rt.cpu)
	for _, ss := range rt.streams {
		n += len(ss)
	}
	return n
}

// AppendState appends every time a later booking can read, each measured
// from floor and clamped at it: each device's host and engine threads and
// its queues (gpu.Device.AppendState), every fabric link direction, the
// CPU-side resources, and the tail of every stream the runtime made. When
// no later booking is ready before floor, every one of those reads sits
// under a max with a readiness at or after floor (Book, LaunchRun,
// Gang.Launch, Extend), so two runtimes whose states agree book any such
// sequence alike, shifted by the difference of their floors.
func (rt *Runtime) AppendState(buf []time.Duration, floor time.Duration) []time.Duration {
	for i := range rt.devs {
		d := &rt.devs[i]
		buf = append(buf, d.host.FreeSince(floor), d.engine.FreeSince(floor))
		buf = d.dev.AppendState(buf, floor)
	}
	buf = rt.fabric.AppendState(buf, floor)
	for i := range rt.cpu {
		buf = append(buf, rt.cpu[i].res.FreeSince(floor))
	}
	for _, ss := range rt.streams {
		for i := range ss {
			buf = append(buf, max(ss[i].tail-floor, 0))
		}
	}
	return buf
}

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
	track := s.d.lay.computeTrack
	if s.comm {
		start, end = s.d.dev.BookCommKernel(ready, k.Dur)
		track = s.d.lay.commTrack
	} else {
		start, end = s.d.dev.BookKernel(ready, k.Dur)
	}
	if s.rt.count(profiler.KindKernel, k.Slot, start, end) {
		s.rt.prof.RecordSlot(k.Slot, profiler.Interval{
			Kind: profiler.KindKernel, Name: k.Name, Stage: stage,
			Track: track, Start: start, End: end,
		})
	}
	s.tail = end
	return hostDone, end
}

// LaunchRun launches every kernel of r, in order, from hostReady: the same
// bookings, return values and profile aggregates as calling Launch once
// per kernel and threading hostDone through, but in O(1) bookings. The
// launches form a max-plus chain on two FIFO resources, so with H0 the
// host thread's first free time at or after hostReady and E0 the later
// of the stream's tail and its device queue's free time, the run ends at
//
//	hostDone  = H0 + n·L
//	kernelEnd = max(E0 + sum, H0 + crit)
//
// exactly, in integer nanoseconds (see RunSum). A Detailed profile still
// launches kernel by kernel, so its timeline keeps every interval. An
// empty run books nothing and returns (hostReady, 0), as the loop it
// replaces does.
func (s *Stream) LaunchRun(stage profiler.Stage, r Run, hostReady time.Duration) (hostDone, kernelEnd time.Duration) {
	n := len(r.Durs)
	if n == 0 {
		return hostReady, 0
	}
	prof := s.rt.prof
	if prof != nil && prof.Detailed() {
		for i, dur := range r.Durs {
			k := Kernel{Name: prof.Name(profiler.KindKernel, r.Slots[i]), Dur: dur, Slot: r.Slots[i]}
			hostReady, kernelEnd = s.Launch(stage, k, hostReady)
		}
		return hostReady, kernelEnd
	}
	thread, queue := s.thread(), s.d.dev.Queue(s.comm)
	h0 := max(hostReady, thread.FreeAt())
	e0 := max(s.tail, queue.FreeAt())
	launch := time.Duration(n) * s.rt.costs.LaunchKernel
	hostDone = h0 + launch
	kernelEnd = max(e0+r.sum, h0+r.crit)
	thread.BookRun(int64(n), launch, hostDone)
	queue.BookRun(int64(n), r.sum, kernelEnd)
	s.tail = kernelEnd
	if prof != nil {
		prof.AddSlot(profiler.KindAPI, s.rt.launch.slot, int64(n), launch)
		for i, slot := range r.Slots {
			prof.AddSlot(profiler.KindKernel, slot, 1, r.Durs[i])
		}
	}
	return hostDone, kernelEnd
}

// thread returns the host thread that launches the stream's work: the
// device's launch thread, or its engine thread for a comm stream.
func (s *Stream) thread() *sim.Resource {
	if s.comm {
		return &s.d.engine
	}
	return &s.d.host
}

// Entry is what a pass reads of a stream's state when it starts: see
// Stream.Entry. Two streams with equal entries book the same pass alike.
type Entry struct {
	host, device time.Duration
}

// Entry returns the stream's entry for a pass from hostReady whose input
// is ready at dataReady (the pass's first act is WaitEvent(dataReady)).
// A pass is a LaunchRun of at least one kernel from hostReady, then any
// LaunchRuns threading the host clock through, then Synchronize; on an
// aggregate-only profile every booking it makes is a function of two
// values only (see LaunchRun):
//
//	H0 = max(hostReady, the host thread's free time)
//	E0 = max(tail, dataReady, the device queue's free time)
//
// and the first run ends at max(E0 + sum, H0 + crit). crit ≥ L + sum, so
// every E0 ≤ H0 gives the same end: the entry is (H0, max(E0, H0)).
func (s *Stream) Entry(hostReady, dataReady time.Duration) Entry {
	h0 := max(hostReady, s.thread().FreeAt())
	return Entry{host: h0, device: max(s.tail, dataReady, s.d.dev.Queue(s.comm).FreeAt(), h0)}
}

// StreamMark is a stream's booking state at one point: its host thread
// and its device queue. Replay books on another stream what a stream
// booked since its mark.
type StreamMark struct {
	thread, queue sim.Resource
}

// Mark records the stream's current state into m.
func (s *Stream) Mark(m *StreamMark) {
	m.thread, m.queue = *s.thread(), *s.d.dev.Queue(s.comm)
}

// Replay books on s the pass src launched since m, in closed form: its
// host thread and device queue take src's request count and busy time
// since m and src's free times, and its tail becomes src's. It is exact
// when s's Entry for the pass equals src's at m, the two run the same
// kernels (a pass books only its own stream's host thread and device
// queue, back to back), and nothing else booked on src since m. The
// profile is not touched: the caller repeats the pass's aggregates
// (profiler.Profile.Repeat), so Replay is for aggregate-only profiles,
// whose timelines keep no per-track intervals.
func (s *Stream) Replay(src *Stream, m *StreamMark) {
	th, q := src.thread(), src.d.dev.Queue(src.comm)
	s.thread().BookRun(th.Requests()-m.thread.Requests(), th.BusyTime()-m.thread.BusyTime(), th.FreeAt())
	s.d.dev.Queue(s.comm).BookRun(q.Requests()-m.queue.Requests(), q.BusyTime()-m.queue.BusyTime(), q.FreeAt())
	s.tail = src.tail
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
	if s.rt.count(profiler.KindKernel, k.Slot, bs, be) {
		s.rt.prof.RecordSlot(k.Slot, profiler.Interval{
			Kind: profiler.KindKernel, Name: k.Name, Stage: stage,
			Track: s.d.lay.commTrack, Start: bs, End: be,
		})
	}
	s.tail = be
	return be
}

// Gang is one communication stream per rank that launches collectives as
// a single synchronized group: every rank's engine thread pays a launch,
// then every rank's stream stays busy until one global completion. It
// owns the per-launch scratch, so it is single-threaded like the runtime.
type Gang struct {
	rt      *Runtime
	streams []Stream
	avail   []time.Duration
}

// CommGang creates a communication stream on each device, in rank order,
// and groups them into a gang.
func (rt *Runtime) CommGang(devs []topology.NodeID) *Gang {
	return &Gang{rt: rt, streams: rt.Streams(devs, true), avail: make([]time.Duration, len(devs))}
}

// Stream returns rank i's stream.
func (g *Gang) Stream(i int) *Stream { return &g.streams[i] }

// Launch books one collective kernel k on every rank from ready: each
// rank's engine thread pays a cudaLaunchKernel, rank i becomes available
// at avail_i = max(its launch's end, its stream's tail, ready), and the
// collective runs from global = max(ready, max_i avail_i) until
// end = global + dur, each rank's stream busy from avail_i until end (as
// Extend books it). It returns global and end.
//
// The result, every booking and every profile aggregate equal those of
// HostLaunch on each rank followed by Extend on each rank; the launches
// and the windows are accounted in one batch per gang instead. A
// Detailed profile still books rank by rank, so its timeline keeps every
// interval.
func (g *Gang) Launch(stage profiler.Stage, k Kernel, ready, dur time.Duration) (global, end time.Duration) {
	prof := g.rt.prof
	if prof != nil && prof.Detailed() {
		return g.launchEach(stage, k, ready, dur)
	}
	launch := g.rt.costs.LaunchKernel
	global = ready
	for i := range g.streams {
		s := &g.streams[i]
		thread := &s.d.engine
		hostDone := max(ready, thread.FreeAt()) + launch
		thread.BookRun(1, launch, hostDone)
		a := max(hostDone, s.tail)
		g.avail[i] = a
		global = max(global, a)
	}
	end = global + dur
	var busy time.Duration
	for i := range g.streams {
		s := &g.streams[i]
		start := max(s.tail, g.avail[i])
		d := max(end-start, 0)
		queue := s.d.dev.Queue(true)
		s.tail = max(start, queue.FreeAt()) + d
		queue.BookRun(1, d, s.tail)
		busy += d
	}
	if prof != nil {
		n := int64(len(g.streams))
		prof.AddSlot(profiler.KindAPI, g.rt.launch.slot, n, time.Duration(n)*launch)
		prof.AddSlot(profiler.KindKernel, k.Slot, n, busy)
	}
	return global, end
}

// launchEach is Launch rank by rank: a HostLaunch on every rank, then an
// Extend on every rank.
func (g *Gang) launchEach(stage profiler.Stage, k Kernel, ready, dur time.Duration) (global, end time.Duration) {
	global = ready
	for i := range g.streams {
		s := &g.streams[i]
		g.avail[i] = max(s.HostLaunch(stage, ready), s.tail, ready)
		global = max(global, g.avail[i])
	}
	end = global + dur
	for i := range g.streams {
		g.streams[i].Extend(stage, k, g.avail[i], end)
	}
	return global, end
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
	return rt.block(rt.state(dev), false, stage, hostReady, target)
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
	r, labels := rt.peer(src, dst)
	if r.err != nil {
		return 0, 0, r.err
	}
	issuer := rt.state(dst)
	if issuer == nil {
		issuer = rt.state(src)
	}
	_, hostDone = rt.hostCall(issuer, rt.memcpy, stage, hostReady, rt.costs.MemcpyAsync, true)
	ready := hostDone
	if dataReady > ready {
		ready = dataReady
	}
	start, end := rt.fabric.Book(r.path, size, ready)
	if d := rt.state(src); d != nil {
		if _, dmaEnd := d.dev.BookDMA(start, end-start); dmaEnd > end {
			end = dmaEnd
		}
	}
	rt.recordCopy(labels, stage, start, end)
	return hostDone, end, nil
}

// recordCopy records one transfer on its labels. The layout's slot is the
// profile's when the profile was seeded with the layout's transfer names;
// otherwise the name is interned.
func (rt *Runtime) recordCopy(c *copyLabels, stage profiler.Stage, start, end time.Duration) {
	slot := c.memcpy.slot
	if rt.prof != nil && (slot < 0 || !rt.seeded) {
		slot = rt.prof.Intern(profiler.KindTransfer, c.memcpy.name)
	}
	if rt.count(profiler.KindTransfer, slot, start, end) {
		rt.prof.RecordSlot(slot, profiler.Interval{
			Kind: profiler.KindTransfer, Name: c.memcpy.name,
			Stage: stage, Track: c.xfer,
			Start: start, End: end,
		})
	}
}

// MemcpyHostToDevice enqueues a host-to-device copy over the GPU's PCIe
// link (training-data staging).
func (rt *Runtime) MemcpyHostToDevice(dst topology.NodeID, size units.Bytes, stage profiler.Stage, hostReady time.Duration) (hostDone, end time.Duration, err error) {
	d := rt.state(dst)
	c := &d.lay.h2d
	if c.err != nil {
		return 0, 0, c.err
	}
	_, hostDone = rt.hostCall(d, rt.memcpy, stage, hostReady, rt.costs.MemcpyAsync, true)
	start, end := rt.fabric.Book(c.path, size, hostDone)
	rt.recordCopy(&c.copyLabels, stage, start, end)
	return hostDone, end, nil
}

// MemcpyDeviceToHost enqueues a device-to-host copy over the GPU's PCIe
// link (gradient upload for a CPU parameter server).
func (rt *Runtime) MemcpyDeviceToHost(src topology.NodeID, size units.Bytes, stage profiler.Stage, hostReady, dataReady time.Duration) (hostDone, end time.Duration, err error) {
	d := rt.state(src)
	c := &d.lay.d2h
	if c.err != nil {
		return 0, 0, c.err
	}
	_, hostDone = rt.hostCall(d, rt.memcpy, stage, hostReady, rt.costs.MemcpyAsync, true)
	ready := hostDone
	if dataReady > ready {
		ready = dataReady
	}
	start, end := rt.fabric.Book(c.path, size, ready)
	rt.recordCopy(&c.copyLabels, stage, start, end)
	return hostDone, end, nil
}

// CPUWork books dur of computation on the named CPU-side resource (the
// parameter-server update loop of MXNet's "local" kvstore), creating the
// resource on first use.
func (rt *Runtime) CPUWork(name string, stage profiler.Stage, ready time.Duration, dur time.Duration) (start, end time.Duration) {
	i := 0
	for i < len(rt.cpu) && rt.cpu[i].name != name {
		i++
	}
	if i == len(rt.cpu) {
		rt.cpu = append(rt.cpu, cpuResource{name: name})
	}
	start, end = rt.cpu[i].res.Book(ready, dur)
	if rt.count(profiler.KindMarker, profiler.NoSlot, start, end) {
		rt.prof.RecordSlot(profiler.NoSlot, profiler.Interval{
			Kind: profiler.KindMarker, Name: name, Stage: stage,
			Track: name, Start: start, End: end,
		})
	}
	return start, end
}

// cpuResource is one named CPU-side resource (CPUWork).
type cpuResource struct {
	name string
	res  sim.Resource
}

// Costs returns the runtime's host API costs.
func (rt *Runtime) Costs() Costs { return rt.costs }
