package train

import (
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
		templates.Add(key, tmpl)
	}
	return tmpl, err
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

// planTable is a data-parallel kernel plan's spec-independent half: the
// kernel names a trainer's profile is seeded with (runtimeKernels, then
// the plan's distinct names, then their "recompute_" twins for gradient
// checkpointing), each kernel's slot among them, and where the backward
// kernels are cut into runs. None of it depends on the batch, which
// changes only the kernels' costs, so every batch of a network under one
// set of lowering options shares one table. It is a pure function of the
// network and the options, so a table rebuilt after an eviction numbers
// every name as the one it replaces, and a kernel table built against
// either reads the same slots.
type planTable struct {
	names          *profiler.Names
	fwd, recompute []profiler.Slot
	bwd            []profiler.Slot
	cuts           []runCut
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
	p := buildPlanTable(net.ForwardPlan(batch, opts), net.BackwardPlan(batch, opts))
	planTables.Add(key, p)
	return p
}

// buildPlanTable builds the plan table of a forward plan and its backward
// steps.
func buildPlanTable(fwd []gpu.KernelCost, bwd []dnn.BackwardStep) *planTable {
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
	p := &planTable{
		fwd:       slots[:len(fwd):len(fwd)],
		recompute: slots[len(fwd) : 2*len(fwd) : 2*len(fwd)],
		bwd:       slots[2*len(fwd):],
		cuts:      cutRuns(len(bwd), func(i int) (int, *dnn.WeightedLayer) { return len(bwd[i].Kernels), bwd[i].Layer }),
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
	return p
}

// kernelTable is a plan lowered for one device spec and launch cost: each
// kernel's duration on that spec and each run's closed form, over its
// plan table's slots and cuts. Only what the spec changes is stored —
// about 8 bytes a kernel — so every (plan, spec) pair a long-lived server
// compiles fits beside the plans.
type kernelTable struct {
	plan   *planTable
	fwdDur []time.Duration
	bwdDur []time.Duration
	fwd    cuda.RunSum
	// bwd[i] summarizes the backward run ending at plan.cuts[i].
	bwd []cuda.RunSum
	// updates[j] is the weight-update kernel's duration for the j-th
	// layer with parameters, in backward order, on this spec (the root's
	// when this is the root's table).
	updates []time.Duration
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
		fwdDur:  durs[:len(fwd):len(fwd)],
		bwdDur:  durs[len(fwd):],
		bwd:     make([]cuda.RunSum, len(plan.cuts)),
		updates: make([]time.Duration, 0, len(plan.cuts)),
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

// runTable is a kernel sequence cut into runs: run i ends at cuts[i], and
// sums[i] is its closed form.
type runTable struct {
	slots []profiler.Slot
	durs  []time.Duration
	sums  []cuda.RunSum
	cuts  []runCut
}

// run returns run i, which starts at kernel lo (the previous run's end).
func (r *runTable) run(i, lo int) cuda.Run {
	hi := r.cuts[i].end
	return cuda.Run{Slots: r.slots[lo:hi:hi], Durs: r.durs[lo:hi:hi], RunSum: r.sums[i]}
}

// tablesFor returns each device's kernel table for the trainer's plan,
// indexed like devs (devices sharing a spec share one table). The base
// spec's table is memoized beside the dnn plan; a straggler's slowed spec
// is lowered for this trainer alone, the same way.
func tablesFor(cfg Config, plan *planTable, devs []topology.NodeID, base gpu.Spec, specs map[topology.NodeID]gpu.Spec, launch time.Duration) []*kernelTable {
	opts := dnn.PlanOptions{TensorCores: cfg.TensorCores, Winograd: cfg.Winograd}
	specOf := func(d topology.NodeID) gpu.Spec {
		if s, ok := specs[d]; ok {
			return s
		}
		return base
	}
	out := make([]*kernelTable, len(devs))
	for i, d := range devs {
		spec := specOf(d)
		j := 0
		for j < i && specOf(devs[j]) != spec {
			j++
		}
		switch {
		case j < i:
			out[i] = out[j]
		case spec == base:
			out[i] = dnn.Derived(cfg.Model.Net, cfg.Batch, opts, kernelTableKey{spec: spec, launch: launch},
				func(fwd []gpu.KernelCost, bwd []dnn.BackwardStep) *kernelTable {
					return lowerTable(plan, fwd, bwd, spec, launch)
				})
		default:
			out[i] = lowerTable(plan, cfg.Model.Net.ForwardPlan(cfg.Batch, opts), cfg.Model.Net.BackwardPlan(cfg.Batch, opts), spec, launch)
		}
	}
	return out
}
