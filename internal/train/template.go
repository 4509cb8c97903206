package train

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/kvstore"
	"repro/internal/memo"
	"repro/internal/nccl"
	"repro/internal/p2p"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// A trainer is built from shared, immutable templates plus a little
// per-compile state:
//
//   - a machine template per (machine, device set, kvstore method): the
//     runtime's layout (every track and transfer name, the host and peer
//     copy paths) and the NCCL rings;
//   - a plan table per (network, lowering options): the kernels' profile
//     names and slots and the backward runs' cuts;
//   - a kernel table per (plan, device spec), kept beside the memoized dnn
//     plan: each kernel's duration and each run's closed form.
//
// Per compile, a trainer allocates only what its bookings change: one
// slab of zeroed devices and host threads, the fabric's link directions,
// its streams and its profile's aggregates, seeded with the templates'
// names so that no name is formatted or interned.

// machineTemplate is everything building a trainer derives from the
// machine, the device set and the kvstore method alone.
type machineTemplate struct {
	top    *topology.Topology
	devs   []topology.NodeID
	layout *cuda.Layout
	// rings is the NCCL communicator's layout, nil unless the method is
	// nccl.
	rings *nccl.Layout
	// shared marks a registered machine's memoized template, which
	// process-wide memos may key by (wiresFor).
	shared bool
}

// buildTemplate builds the machine template of devs on top under method.
// A registered machine's healthy template is built once per key
// (machineTemplateFor); a faulted or overridden topology builds its own
// the same way, per trainer.
func buildTemplate(top *topology.Topology, devs []topology.NodeID, method kvstore.Method) (*machineTemplate, error) {
	lay, err := cuda.NewLayout(top, devs)
	if err != nil {
		return nil, err
	}
	tmpl := &machineTemplate{top: top, devs: devs, layout: lay}
	if method == kvstore.MethodNCCL {
		if tmpl.rings, err = nccl.NewLayout(top, devs, nccl.DefaultConfig().MaxRings); err != nil {
			return nil, err
		}
	}
	return tmpl, nil
}

// maxTemplateDevs bounds the device sets a template key holds: the
// largest registered machine's GPU count.
const maxTemplateDevs = 16

// templateKey identifies one shared machine template.
type templateKey struct {
	machine string
	method  kvstore.Method
	n       int
	devs    [maxTemplateDevs]topology.NodeID
}

// templates holds the registered machines' healthy templates. Every
// default device set of every machine and method is 5 machines × 1–16
// GPUs × 3 methods, well under the bound; pinned device sets share it.
var templates = memo.New[templateKey, *machineTemplate](256)

// machineTemplateFor returns the shared template of a registered
// machine's healthy topology, building it on first use.
func machineTemplateFor(m Machine, devs []topology.NodeID, method kvstore.Method) (*machineTemplate, error) {
	top, err := MachineTopology(m.Name)
	if err != nil {
		return nil, err
	}
	if len(devs) > maxTemplateDevs {
		return buildTemplate(top, devs, method)
	}
	key := templateKey{machine: m.Name, method: method, n: len(devs)}
	copy(key.devs[:], devs)
	if tmpl, ok := templates.Lookup(key); ok {
		return tmpl, nil
	}
	// Concurrent first callers each build an equal template; the last one
	// built stays.
	tmpl, err := buildTemplate(top, devs, method)
	if err == nil {
		tmpl.shared = true
		templates.Add(key, tmpl)
	}
	return tmpl, err
}

// wiresKey identifies one memoized set of NCCL wire times.
type wiresKey struct {
	rings *nccl.Layout
	plan  *planTable
	cfg   nccl.Config
}

// wires holds the wire times of the shared templates' rings: every
// default device set of every machine, zoo network and collective
// selection the miss traffic draws is 5 × 8 × 5 × 4 = 800 keys.
var wires = memo.New[wiresKey, []nccl.Wire](1024)

// wiresFor returns the NCCL wire times of the plan's distinct gradient
// sizes (planTable.grads), as backend (an nccl backend over tmpl.rings
// under cfg) prices them. They depend on the gradient sizes,
// the rings and the config, not on the batch, so a shared template's are
// memoized. A faulted or overridden topology's template lives for one
// trainer, and a memo keyed by its rings would pin the topology, so its
// wire times are priced for the trainer alone.
func wiresFor(tmpl *machineTemplate, plan *planTable, cfg nccl.Config, backend kvstore.Backend) []nccl.Wire {
	key := wiresKey{rings: tmpl.rings, plan: plan, cfg: cfg}
	if tmpl.shared {
		if w, ok := wires.Lookup(key); ok {
			return w
		}
	}
	out := make([]nccl.Wire, len(plan.grads))
	var a kvstore.Array
	for k, size := range plan.grads {
		a.Size = size
		backend.Price(&a)
		out[k] = a.Wire
	}
	if tmpl.shared {
		wires.Add(key, out)
	}
	return out
}

// sgdUpdate names the root's weight-update kernel.
const sgdUpdate = "sgd_update"

// runtimeKernels are the kernels the kvstore backends and the trainer
// launch besides the plan's. They lead every plan table's names, so their
// slots are the same constants in every trainer's profile.
var runtimeKernels = [...]string{
	nccl.KernelAllReduce, nccl.KernelBroadcast, nccl.KernelReduceScatter, nccl.KernelAllGather,
	p2p.KernelAdd, sgdUpdate,
}

// slotSGDUpdate is sgdUpdate's slot in every plan table's names: the last
// of runtimeKernels.
const slotSGDUpdate = profiler.Slot(len(runtimeKernels) - 1)

// planTable is a kernel plan's spec-independent half: the kernel names a
// trainer's profile is seeded with (runtimeKernels, then the plan's
// distinct names, then their "recompute_" twins for gradient
// checkpointing), each kernel's slot among them, where the backward
// kernels are cut into runs, and where each network node's kernels sit.
// None of it depends on the batch, which changes only the kernels' costs,
// so every batch of a network under one set of lowering options shares
// one table. It is a pure function of the network and the options, so a
// table rebuilt after an eviction numbers every name as the one it
// replaces, and a kernel table built against either reads the same slots.
//
// Every schedule reads its kernels from these tables: data parallelism
// launches whole passes, model parallelism a contiguous node range per
// stage, and the hybrid scheme the body ahead of the FC head.
type planTable struct {
	names          *profiler.Names
	fwd, recompute []profiler.Slot
	bwd            []profiler.Slot
	cuts           []runCut
	// fwdAt and bwdAt locate each network node's kernels by its index in
	// Nodes(): node i's forward kernels are fwd[fwdAt[i]:fwdAt[i+1]], and
	// its backward step's are bwd[bwdAt[i+1]:bwdAt[i]], because the
	// backward pass runs from the last node to the first. A node that
	// lowers to no kernel has empty ranges. Each has len(Nodes())+1
	// entries, so nodes [from, to) are one slice of either pass.
	fwdAt, bwdAt []int
	// cutPoints is the network's clean pipeline cuts
	// (dnn.Network.CutPoints), where model parallelism may end a stage.
	cutPoints []int
	// grads lists the distinct gradient sizes of the layers with
	// parameters, and gradAt[j] is the j-th such layer's (in backward
	// order) index in it: the exchange is priced once per distinct size.
	grads  []units.Bytes
	gradAt []int
}

// planTableKey identifies one shared plan table.
type planTableKey struct {
	net  *dnn.Network
	opts dnn.PlanOptions
}

// planTables holds the plan tables: a few lowering options per zoo
// network, and room for networks built outside the zoo.
var planTables = memo.New[planTableKey, *planTable](64)

// planTableFor returns the plan table of net under opts, building it from
// the batch's plan on first use.
func planTableFor(net *dnn.Network, batch int, opts dnn.PlanOptions) *planTable {
	key := planTableKey{net: net, opts: opts}
	if p, ok := planTables.Lookup(key); ok {
		return p
	}
	p := buildPlanTable(net.Nodes(), net.ForwardPlan(batch, opts), net.BackwardPlan(batch, opts))
	p.cutPoints = net.CutPoints()
	planTables.Add(key, p)
	return p
}

// buildPlanTable builds the plan table of a network's nodes, its forward
// plan and its backward steps. Both plans cover exactly the nodes that
// lower to kernels, one forward kernel each and the backward steps in
// reverse: the j-th such node's step is bwd[len(bwd)-1-j].
func buildPlanTable(nodes []*dnn.Node, fwd []gpu.KernelCost, bwd []dnn.BackwardStep) *planTable {
	nb := 0
	for _, st := range bwd {
		nb += len(st.Kernels)
	}
	names := append(make([]string, 0, len(runtimeKernels)+32), runtimeKernels[:]...)
	ids := make(map[string]profiler.Slot, 64)
	for i, name := range names {
		ids[name] = profiler.Slot(i)
	}
	slotOf := func(name string) profiler.Slot {
		s, ok := ids[name]
		if !ok {
			s = profiler.Slot(len(names))
			ids[name] = s
			names = append(names, name)
		}
		return s
	}
	slots := make([]profiler.Slot, 2*len(fwd)+nb)
	at := make([]int, 2*(len(nodes)+1))
	p := &planTable{
		fwd:       slots[:len(fwd):len(fwd)],
		recompute: slots[len(fwd) : 2*len(fwd) : 2*len(fwd)],
		bwd:       slots[2*len(fwd):],
		cuts:      cutRuns(len(bwd), func(i int) (int, *dnn.WeightedLayer) { return len(bwd[i].Kernels), bwd[i].Layer }),
		fwdAt:     at[: len(nodes)+1 : len(nodes)+1],
		bwdAt:     at[len(nodes)+1:],
	}
	// j counts the lowered nodes before node i, and k their backward
	// kernels, which the backward pass launches last.
	j, k := 0, 0
	for i, nd := range nodes {
		p.fwdAt[i], p.bwdAt[i] = j, nb-k
		if j < len(bwd) && bwd[len(bwd)-1-j].Node == nd {
			k += len(bwd[len(bwd)-1-j].Kernels)
			j++
		}
	}
	p.fwdAt[len(nodes)] = j
	if j != len(fwd) || j != len(bwd) {
		panic(fmt.Sprintf("train: %d forward kernels and %d backward steps do not pair with the network's nodes", len(fwd), len(bwd)))
	}
	for i, c := range fwd {
		p.fwd[i] = slotOf(c.Name)
	}
	i := 0
	for _, st := range bwd {
		for _, c := range st.Kernels {
			p.bwd[i] = slotOf(c.Name)
			i++
		}
	}
	// Each forward name's recompute twin, named once per distinct name.
	twin := make([]profiler.Slot, len(names))
	for i, s := range p.fwd {
		if twin[s] == 0 {
			twin[s] = slotOf("recompute_" + names[s])
		}
		p.recompute[i] = twin[s]
	}
	p.names = profiler.NewNames(names)
	distinct := make(map[units.Bytes]int)
	for _, c := range p.cuts {
		if c.layer == nil {
			continue
		}
		size := units.BytesOf(c.layer.Params, units.Float32Size)
		k, ok := distinct[size]
		if !ok {
			k = len(p.grads)
			distinct[size] = k
			p.grads = append(p.grads, size)
		}
		p.gradAt = append(p.gradAt, k)
	}
	return p
}

// kernelTable is a plan lowered for one device spec and launch cost: each
// kernel's duration on that spec and each run's closed form, over its
// plan table's slots and cuts. Only what the spec changes is stored —
// about 8 bytes a kernel — so every (plan, spec) pair a long-lived server
// compiles fits beside the plans.
type kernelTable struct {
	plan *planTable
	// launch is the launch cost the run sums assume.
	launch time.Duration
	fwdDur []time.Duration
	bwdDur []time.Duration
	fwd    cuda.RunSum
	// bwd[i] summarizes the backward run ending at plan.cuts[i].
	bwd []cuda.RunSum
	// updates[j] is the weight-update kernel's duration for the j-th
	// layer with parameters, in backward order, on this spec (the root's
	// when this is the root's table), and adds[k] the P2P reduction's
	// gradient-accumulate kernel's (p2p.AddCost) for the plan's k-th
	// distinct gradient size (planTable.grads).
	updates, adds []time.Duration
	// util is the occupancy-weighted kernel seconds of one iteration
	// (the per-iteration numerator of ComputeUtilization).
	util float64
}

// kernelTableKey keys a kernel table beside its dnn plan.
type kernelTableKey struct {
	spec   gpu.Spec
	launch time.Duration
}

// lowerTable lowers a plan for spec at launch cost launch.
func lowerTable(plan *planTable, fwd []gpu.KernelCost, bwd []dnn.BackwardStep, spec gpu.Spec, launch time.Duration) *kernelTable {
	durs := make([]time.Duration, len(fwd)+len(plan.bwd))
	tab := &kernelTable{
		plan:    plan,
		launch:  launch,
		fwdDur:  durs[:len(fwd):len(fwd)],
		bwdDur:  durs[len(fwd):],
		bwd:     make([]cuda.RunSum, len(plan.cuts)),
		updates: make([]time.Duration, 0, len(plan.cuts)),
		adds:    make([]time.Duration, len(plan.grads)),
	}
	// The utilization sum runs in launch order, as the kernels do.
	for i, c := range fwd {
		tab.fwdDur[i] = spec.KernelDuration(c)
		tab.util += tab.fwdDur[i].Seconds() * spec.Occupancy(c.Parallelism)
	}
	i := 0
	for _, st := range bwd {
		for _, c := range st.Kernels {
			tab.bwdDur[i] = spec.KernelDuration(c)
			tab.util += tab.bwdDur[i].Seconds() * spec.Occupancy(c.Parallelism)
			i++
		}
	}
	tab.fwd = cuda.Summarize(tab.fwdDur, launch)
	lo := 0
	for ri, c := range plan.cuts {
		tab.bwd[ri] = cuda.Summarize(tab.bwdDur[lo:c.end], launch)
		lo = c.end
		if c.layer != nil {
			tab.updates = append(tab.updates, spec.KernelDuration(sgdUpdateCost(units.BytesOf(c.layer.Params, units.Float32Size))))
		}
	}
	for k, size := range plan.grads {
		tab.adds[k] = spec.KernelDuration(p2p.AddCost(size))
	}
	return tab
}

// fwdRun returns the forward pass as one run.
func (tab *kernelTable) fwdRun() cuda.Run {
	return cuda.Run{Slots: tab.plan.fwd, Durs: tab.fwdDur, RunSum: tab.fwd}
}

// recomputeRun returns gradient checkpointing's extra forward pass: the
// forward kernels relabeled.
func (tab *kernelTable) recomputeRun() cuda.Run {
	return cuda.Run{Slots: tab.plan.recompute, Durs: tab.fwdDur, RunSum: tab.fwd}
}

// bwdRuns returns the backward pass cut into runs.
func (tab *kernelTable) bwdRuns() runTable {
	return runTable{slots: tab.plan.bwd, durs: tab.bwdDur, sums: tab.bwd, cuts: tab.plan.cuts}
}

// fwdSlice returns the forward kernels of nodes [from, to) (indices into
// Nodes()) as one run.
func (tab *kernelTable) fwdSlice(from, to int) cuda.Run {
	lo, hi := tab.plan.fwdAt[from], tab.plan.fwdAt[to]
	return tab.slice(tab.plan.fwd, tab.fwdDur, lo, hi)
}

// bwdSlice returns the backward kernels of nodes [from, to) as one run,
// in launch order (node to-1's step first).
func (tab *kernelTable) bwdSlice(from, to int) cuda.Run {
	lo, hi := tab.plan.bwdAt[to], tab.plan.bwdAt[from]
	return tab.slice(tab.plan.bwd, tab.bwdDur, lo, hi)
}

// slice returns kernels [lo, hi) of one pass as a run, summarizing it.
func (tab *kernelTable) slice(slots []profiler.Slot, durs []time.Duration, lo, hi int) cuda.Run {
	return cuda.Run{Slots: slots[lo:hi:hi], Durs: durs[lo:hi:hi], RunSum: cuda.Summarize(durs[lo:hi], tab.launch)}
}

// nodeCost is node i's kernel seconds on the table's spec: its forward
// kernels, then its backward step's, in launch order.
func (tab *kernelTable) nodeCost(i int) float64 {
	p, c := tab.plan, 0.0
	for _, d := range tab.fwdDur[p.fwdAt[i]:p.fwdAt[i+1]] {
		c += d.Seconds()
	}
	for _, d := range tab.bwdDur[p.bwdAt[i+1]:p.bwdAt[i]] {
		c += d.Seconds()
	}
	return c
}

// weights is the parameter bytes of nodes [from, to) (indices into
// Nodes()): the weighted layers whose backward runs end inside the
// nodes' backward slice.
func (p *planTable) weights(from, to int) units.Bytes {
	lo, hi := p.bwdAt[to], p.bwdAt[from]
	var w units.Bytes
	for _, c := range p.cuts {
		if c.layer != nil && c.end > lo && c.end <= hi {
			w += units.BytesOf(c.layer.Params, units.Float32Size)
		}
	}
	return w
}

// runTable is a kernel sequence cut into runs: run i spans from the
// previous run's end (start, for the first) to cuts[i], and sums[i] is
// its closed form.
type runTable struct {
	slots []profiler.Slot
	durs  []time.Duration
	sums  []cuda.RunSum
	cuts  []runCut
	start int
}

// run returns run i.
func (r *runTable) run(i int) cuda.Run {
	lo, hi := r.start, r.cuts[i].end
	if i > 0 {
		lo = r.cuts[i-1].end
	}
	return cuda.Run{Slots: r.slots[lo:hi:hi], Durs: r.durs[lo:hi:hi], RunSum: r.sums[i]}
}

// after returns the runs that follow run i.
func (r runTable) after(i int) runTable {
	r.start, r.sums, r.cuts = r.cuts[i].end, r.sums[i+1:], r.cuts[i+1:]
	return r
}

// tablesFor returns each device's kernel table for the trainer's plan at
// batch, indexed like devs (devices sharing a spec share one table). A
// healthy spec's table is memoized beside the dnn plan; a straggler's
// slowed spec (in stragglers) is lowered for this trainer alone, the same
// way.
func tablesFor(cfg Config, batch int, plan *planTable, rt *cuda.Runtime, devs []topology.NodeID, stragglers map[topology.NodeID]gpu.Spec) []*kernelTable {
	opts := dnn.PlanOptions{TensorCores: cfg.TensorCores, Winograd: cfg.Winograd}
	launch := rt.Costs().LaunchKernel
	out := make([]*kernelTable, len(devs))
	for i, d := range devs {
		spec := rt.Device(d).Spec
		j := 0
		for j < i && rt.Device(devs[j]).Spec != spec {
			j++
		}
		_, slowed := stragglers[d]
		switch {
		case j < i:
			out[i] = out[j]
		case !slowed:
			out[i] = dnn.Derived(cfg.Model.Net, batch, opts, kernelTableKey{spec: spec, launch: launch},
				func(fwd []gpu.KernelCost, bwd []dnn.BackwardStep) *kernelTable {
					return lowerTable(plan, fwd, bwd, spec, launch)
				})
		default:
			out[i] = lowerTable(plan, cfg.Model.Net.ForwardPlan(batch, opts), cfg.Model.Net.BackwardPlan(batch, opts), spec, launch)
		}
	}
	return out
}
