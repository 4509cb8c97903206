// Package train simulates data-parallel synchronous-SGD training on the
// modeled DGX-1, reproducing the paper's measurement methodology: per-GPU
// executors enqueue the FP and BP kernel plans, per-layer gradients are
// pushed through the kvstore as backpropagation produces them (overlapping
// BP with WU as MXNet does), the root GPU updates weights and the kvstore
// distributes them, and a synchronous barrier separates iterations.
//
// A handful of iterations are simulated exactly and the steady-state
// iteration is extrapolated to the full epoch (iterations are identical in
// the steady state, so the extrapolation is exact up to the warmup edge).
package train

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/data"
	"repro/internal/dnn"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/kvstore"
	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/nccl"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// Config describes one training run (one epoch, as the paper measures).
type Config struct {
	// Model is the network to train (from the models zoo).
	Model models.Description
	// GPUs is the device count (1..8; devices 0..GPUs-1 are used, as
	// MXNet's default device assignment does).
	GPUs int
	// Batch is the per-GPU mini-batch size.
	Batch int
	// Method selects the communication backend (p2p or nccl).
	Method kvstore.Method
	// Images is the epoch's dataset size (already scaled for weak
	// scaling). Zero means the paper's 256K.
	Images int64
	// TensorCores lowers conv/GEMM kernels to the tensor-core pipeline.
	TensorCores bool
	// SimIters caps how many iterations a window simulates before
	// extrapolating (>= 2; default DefaultSimIters). A window whose
	// timing state turns periodic simulates fewer and completes the rest
	// in closed form, with the same result.
	SimIters int
	// DetailIntervals retains that many profiler intervals for timeline
	// export (0 = aggregates only).
	DetailIntervals int
	// RoutePolicy overrides peer-copy routing (default staged NVLink).
	RoutePolicy topology.RoutePolicy
	// Async enables the asynchronous-SGD extension: no inter-GPU barrier;
	// each GPU exchanges with the server independently.
	Async bool
	// Hardware names a registered machine ("dgx1" default, "dgx1-pascal",
	// "dgx2", "dgx-a100", "dgx-h100") resolving to a (topology, GPU spec)
	// pair. Mutually exclusive with a non-default name and Topology.
	Hardware string
	// Topology overrides the machine (default: the DGX-1). Ablations use
	// topology.DGX1Scaled / DGX1PCIeOnly to explore interconnect variants.
	Topology *topology.Topology
	// Faults injects a degraded-fabric plan (failed NVLink bricks, link
	// bandwidth loss, straggler GPUs, PCIe contention) into the default
	// DGX-1. Mutually exclusive with Topology: a fault plan describes
	// departures from the stock machine, not from an arbitrary override.
	Faults *faults.Plan
	// GPUSpec overrides the device model (default: the V100).
	GPUSpec *gpu.Spec
	// Parallelism selects how the network is distributed (default: data
	// parallelism, the paper's measured configuration).
	Parallelism Parallelism
	// MicroBatches splits each mini-batch for the model-parallel pipeline
	// (default: 2x the stage count, capped at Batch/4 and at least 1).
	MicroBatches int
	// BucketBytes fuses consecutive gradient arrays into buckets of at
	// least this size before exchanging them (0 = per-array exchange, the
	// paper-era MXNet behaviour). Bucketing amortizes the per-operation
	// overheads the paper identifies as the small networks' bottleneck.
	BucketBytes units.Bytes
	// Devices pins training to specific GPUs (default: 0..GPUs-1, MXNet's
	// assignment). On the DGX-1's asymmetric topology, placement changes
	// communication cost; Devices must have exactly GPUs entries.
	Devices []topology.NodeID
	// NCCL selects the collective algorithm and transfer protocol. The
	// zero value is the rings over Simple the paper measured; the tree
	// algorithm is the later NCCL release's answer to the small-message
	// latency the paper identified, and nccl.ProtoAuto picks protocol and
	// algorithm per collective by message size and fabric.
	NCCL nccl.Selection
	// Checkpointing enables sqrt-N gradient checkpointing: feature-map
	// memory collapses to ~2*sqrt(n) resident activations at the cost of
	// one extra forward pass during BP — the algorithm-level memory remedy
	// the paper's §V-D calls for.
	Checkpointing bool
	// Winograd lowers eligible 3x3 convolutions through the Winograd
	// transform (a cuDNN algorithm choice).
	Winograd bool
}

// Parallelism selects a distribution strategy.
type Parallelism int

// Distribution strategies (paper §I: data parallelism replicates the
// model and exchanges gradients; model parallelism partitions layers and
// exchanges activations; the hybrid scheme data-parallelizes the conv body
// and tensor-parallelizes the FC head).
const (
	DataParallel Parallelism = iota
	ModelParallel
	HybridOWT
)

// String names the strategy.
func (p Parallelism) String() string {
	switch p {
	case ModelParallel:
		return "model-parallel"
	case HybridOWT:
		return "hybrid-owt"
	}
	return "data-parallel"
}

// NewConfig returns the paper's default configuration for a model name.
func NewConfig(model string, gpus, batch int, method kvstore.Method) (Config, error) {
	d, err := models.ByName(model)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Model:       d,
		GPUs:        gpus,
		Batch:       batch,
		Method:      method,
		Images:      data.PaperDatasetImages,
		TensorCores: true,
	}, nil
}

func (c *Config) normalize() error {
	if c.Model.Net == nil {
		return fmt.Errorf("train: config has no model")
	}
	if c.GPUs < 1 {
		return fmt.Errorf("train: GPU count %d out of range", c.GPUs)
	}
	if c.Topology != nil && !isDefaultHardware(c.Hardware) {
		return fmt.Errorf("train: hardware %q and an explicit Topology are mutually exclusive", c.Hardware)
	}
	if c.Topology != nil {
		// Validate the GPU request against the override topology's actual
		// device count, not the DGX-1's. (Previously this bound only
		// applied when Topology was nil, so an override topology accepted
		// any GPU count at validation time.)
		if n := len(c.Topology.GPUs()); c.GPUs > n {
			return fmt.Errorf("train: topology has %d GPUs, requested %d", n, c.GPUs)
		}
	} else {
		m, err := MachineByName(c.Hardware)
		if err != nil {
			return err
		}
		if c.GPUs > m.GPUs {
			return fmt.Errorf("train: %s has %d GPUs, requested %d", m.Title, m.GPUs, c.GPUs)
		}
	}
	if c.Batch <= 0 {
		return fmt.Errorf("train: bad batch size %d", c.Batch)
	}
	if c.Method == "" {
		c.Method = kvstore.MethodNCCL
	}
	// Each schedule's legality, checked before New lowers plans or
	// reserves device memory.
	if c.Async && c.Parallelism != DataParallel {
		return fmt.Errorf("train: async %s is not supported", c.Parallelism)
	}
	// ASGD exchanges are point-to-point by construction.
	if c.Async && c.Method != kvstore.MethodP2P {
		return fmt.Errorf("train: async SGD requires the p2p method, got %q", c.Method)
	}
	// Only the data-parallel schedule launches the recompute pass and
	// fuses gradient exchanges.
	if c.Parallelism != DataParallel {
		if c.Checkpointing {
			return fmt.Errorf("train: checkpointing applies only to data parallelism, not %s", c.Parallelism)
		}
		if c.BucketBytes > 0 {
			return fmt.Errorf("train: gradient buckets apply only to data parallelism, not %s", c.Parallelism)
		}
	}
	// Nor does async SGD: its workers run plain passes and exchange each
	// array on its own.
	if c.Async {
		if c.Checkpointing {
			return fmt.Errorf("train: checkpointing applies only to synchronous data parallelism, not async SGD")
		}
		if c.BucketBytes > 0 {
			return fmt.Errorf("train: gradient buckets apply only to synchronous data parallelism, not async SGD")
		}
	}
	if c.Parallelism == HybridOWT && c.GPUs == 1 {
		return fmt.Errorf("train: hybrid parallelism needs multiple GPUs")
	}
	if c.Parallelism == HybridOWT && c.Method != kvstore.MethodNCCL {
		return fmt.Errorf("train: hybrid parallelism needs the nccl method for its activation collectives")
	}
	if c.Images <= 0 {
		c.Images = data.PaperDatasetImages
	}
	if c.SimIters < 2 {
		c.SimIters = DefaultSimIters
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	c.Faults = c.Faults.Normalize()
	if c.Faults != nil && c.Topology != nil {
		return fmt.Errorf("train: fault plans describe the default DGX-1; clear Config.Topology")
	}
	if err := c.Faults.CheckHardware(c.Hardware); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	return nil
}

// Result is the outcome of one simulated epoch.
type Result struct {
	Config     Config
	Iterations int64

	// EpochTime is the wall time of the epoch (setup + all iterations).
	EpochTime time.Duration
	// SetupTime covers backend initialization and the initial model
	// broadcast.
	SetupTime time.Duration
	// SteadyIter is the converged per-iteration time.
	SteadyIter time.Duration

	// Per-epoch wall-time decomposition (the paper's Figure 4): FPWall and
	// BPWall are computation; WUWall is the exposed weight-update /
	// communication tail after BP completes.
	FPWall, BPWall, WUWall time.Duration

	// Profile holds kernel/API/transfer accounting scaled to the epoch.
	Profile *profiler.Profile
	// Memory is the per-GPU usage estimate.
	Memory memmodel.Estimate

	// Throughput in images per second.
	Throughput float64
	// ComputeUtilization is executed FLOPs over peak FLOPs across the
	// epoch (the paper quotes 18.3% for LeNet).
	ComputeUtilization float64
	// SyncPercent is cudaStreamSynchronize blocked time as a share of
	// epoch time per GPU (Table III).
	SyncPercent float64

	// GPUComputeBusy is each device's compute-queue busy fraction of the
	// epoch. The spread quantifies the idle time the paper attributes to
	// asymmetric links and the GPU0 aggregation role.
	GPUComputeBusy map[topology.NodeID]float64
}

// FPBPWall returns the combined computation wall time (as Figure 4 plots).
func (r *Result) FPBPWall() time.Duration { return r.FPWall + r.BPWall }

// Trainer holds one run's simulation state.
type Trainer struct {
	cfg     Config
	fab     *interconnect.Fabric
	rt      *cuda.Runtime
	prof    *profiler.Profile
	backend kvstore.Backend
	// devs and rings are the machine template's, shared read-only (rings
	// is nil unless the method is nccl).
	devs  []topology.NodeID
	rings *nccl.Layout

	// compute[i] is devs[i]'s training stream.
	compute []cuda.Stream

	// tables[i] is the plan lowered for devs[i]'s spec; devices sharing a
	// spec share one table, and tables[0] is the root's.
	tables []*kernelTable
	// stragglers holds the slowed devices' specs (tablesFor).
	stragglers map[topology.NodeID]gpu.Spec
	schedule   data.Schedule
	memory     memmodel.Estimate

	// grads is runIteration's per-layer scratch, reused across iterations.
	grads []layerGrad
	// wires[k] is the NCCL wire times of the plan's k-th distinct
	// gradient size (nil unless the method is nccl), and xchg the array
	// the exchange prices into (array, bucket); its Adds has a slot per
	// rank when the method is p2p.
	wires []nccl.Wire
	xchg  kvstore.Array
	// passes counts the device passes the schedule launched: a replayed
	// replica (runIteration) launches none.
	passes int64
	// carried holds the times a schedule carries from one iteration to
	// the next (sync's staged batches, ASGD's worker clocks), which join
	// the timing state the window's stop rule compares; begin sets it.
	carried []time.Duration
	// toCap disables the stop rule, so the window simulates every
	// iteration up to its cap, and perDevice the replica replay, so every
	// device launches its own pass. Only tests set them, to compare.
	toCap, perDevice bool
	// ran guards the single-shot simulation (its resources stay booked).
	ran bool
	// check, when set, is consulted between simulated iterations; a
	// non-nil return aborts the run with that error. It is the
	// cooperative-cancellation hook the core layer wires a request
	// context into, so an abandoned request stops burning CPU at the
	// next iteration boundary instead of simulating its whole epoch.
	check func() error
}

// SetCheck installs a cancellation probe consulted between simulated
// iterations (see Trainer.check). A nil probe (the default) never
// aborts. It must be set before Run or SimulateWindow.
func (t *Trainer) SetCheck(check func() error) { t.check = check }

// cancelled consults the cancellation probe, if any.
func (t *Trainer) cancelled() error {
	if t.check == nil {
		return nil
	}
	return t.check()
}

// New builds a trainer, enforcing the device-memory gate (it returns an
// error wrapping gpu.ErrOutOfMemory for untrainable configurations, as the
// paper hit for Inception-v3/ResNet beyond batch 64).
//
// The trainer is built from shared templates (see template.go): a
// registered machine's healthy template is memoized, while a faulted or
// overridden topology builds its template the same way for this trainer
// alone.
func New(cfg Config) (*Trainer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	devs, err := deviceSet(cfg)
	if err != nil {
		return nil, err
	}
	var tmpl *machineTemplate
	spec := gpu.V100()
	if cfg.Topology == nil && cfg.Faults.IsZero() {
		// normalize bounded the GPU count by the registry's, which is
		// the topology's.
		m, err := MachineByName(cfg.Hardware)
		if err != nil {
			return nil, err
		}
		if tmpl, err = machineTemplateFor(m, devs, cfg.Method); err != nil {
			return nil, err
		}
		spec = m.Spec()
	} else {
		top := cfg.Topology
		if top == nil {
			// The fault plan owns the fabric: failed bricks vanish from
			// the link graph (ring search and routing see the degraded
			// machine), degraded links lose bandwidth, PCIe contention
			// shrinks the host links. normalize already rejected fault
			// plans on non-DGX-1 hardware.
			top = cfg.Faults.Topology()
		}
		if err := top.Validate(); err != nil {
			return nil, err
		}
		if n := len(top.GPUs()); cfg.GPUs > n {
			return nil, fmt.Errorf("train: topology has %d GPUs, requested %d", n, cfg.GPUs)
		}
		if tmpl, err = buildTemplate(top, devs, cfg.Method); err != nil {
			return nil, err
		}
	}
	if cfg.GPUSpec != nil {
		spec = *cfg.GPUSpec
	}

	opts := dnn.PlanOptions{TensorCores: cfg.TensorCores, Winograd: cfg.Winograd}
	plan := planTableFor(cfg.Model.Net, cfg.Batch, opts)
	var prof *profiler.Profile
	if cfg.DetailIntervals > 0 {
		prof = profiler.NewDetailed(cfg.DetailIntervals)
	} else {
		prof = profiler.New()
	}
	prof.Seed(profiler.Seeds{Kernels: plan.names, APIs: cuda.APINames, Transfers: tmpl.layout.Transfers()})

	fab := interconnect.New(tmpl.top)
	// Straggler GPUs run a uniformly slowed spec; healthy devices keep the
	// base spec.
	specs := cfg.Faults.Specs(spec)
	rt := tmpl.layout.NewRuntime(fab, spec, specs, cuda.DefaultCosts(), prof)
	rt.SetRoutePolicy(cfg.RoutePolicy)
	ncfg := nccl.DefaultConfig()
	ncfg.Algorithm, ncfg.Protocol = cfg.NCCL.Algorithm, cfg.NCCL.Protocol
	backend, err := kvstore.NewWithNCCL(cfg.Method, rt, tmpl.devs, ncfg, tmpl.rings)
	if err != nil {
		return nil, err
	}

	t := &Trainer{
		cfg:        cfg,
		fab:        fab,
		rt:         rt,
		prof:       prof,
		backend:    backend,
		devs:       tmpl.devs,
		rings:      tmpl.rings,
		compute:    rt.Streams(tmpl.devs, false),
		tables:     tablesFor(cfg, cfg.Batch, plan, rt, tmpl.devs, specs),
		stragglers: specs,
	}
	t.grads = make([]layerGrad, 0, len(t.tables[0].updates))
	switch cfg.Method {
	case kvstore.MethodNCCL:
		t.wires = wiresFor(tmpl, plan, ncfg, backend)
	case kvstore.MethodP2P:
		t.xchg.Adds = make([]time.Duration, len(t.devs))
	}

	t.schedule, err = memoSchedule(cfg.Images, cfg.Model.InputShape, cfg.Batch, cfg.GPUs)
	if err != nil {
		return nil, err
	}

	t.memory = memmodel.Compute(cfg.Model.Net, cfg.Batch, cfg.GPUs > 1)
	if cfg.Checkpointing {
		t.memory = memmodel.ComputeCheckpointed(cfg.Model.Net, cfg.Batch, cfg.GPUs > 1)
	}
	if cfg.Parallelism == ModelParallel {
		// Each GPU holds only its stage: no replication, no aggregation
		// premium.
		t.memory = memmodel.ScaleStages(memmodel.Compute(cfg.Model.Net, cfg.Batch, false), cfg.GPUs)
	}
	// The root holds the high-water mark and every device has its
	// capacity (Spec.Slowed keeps MemCapacity), so one check decides every
	// device. The message keeps its established wording.
	if capacity := rt.Device(backend.Root()).Spec.MemCapacity; !t.memory.Fits(capacity) {
		return nil, fmt.Errorf("train: %s batch %d on %d GPUs: gpu: alloc %v under \"training\": used 0B of %v: %w",
			cfg.Model.Name, cfg.Batch, cfg.GPUs, t.memory.Root()+memmodel.DriverReserve, capacity, gpu.ErrOutOfMemory)
	}
	return t, nil
}

// firstDevs is 0..maxTemplateDevs-1: every default device set is a
// prefix of it, shared read-only.
var firstDevs = func() []topology.NodeID {
	devs := make([]topology.NodeID, maxTemplateDevs)
	for i := range devs {
		devs[i] = topology.NodeID(i)
	}
	return devs
}()

// deviceSet returns the GPUs a configuration trains on: Config.Devices
// when pinned, else 0..GPUs-1. The result is read-only.
func deviceSet(cfg Config) ([]topology.NodeID, error) {
	if cfg.Devices == nil {
		if cfg.GPUs <= len(firstDevs) {
			return firstDevs[:cfg.GPUs:cfg.GPUs], nil
		}
		devs := make([]topology.NodeID, cfg.GPUs)
		for i := range devs {
			devs[i] = topology.NodeID(i)
		}
		return devs, nil
	}
	if len(cfg.Devices) != cfg.GPUs {
		return nil, fmt.Errorf("train: %d devices pinned for %d GPUs", len(cfg.Devices), cfg.GPUs)
	}
	seen := map[topology.NodeID]bool{}
	for _, d := range cfg.Devices {
		if seen[d] {
			return nil, fmt.Errorf("train: duplicate device %d", d)
		}
		seen[d] = true
	}
	return append([]topology.NodeID(nil), cfg.Devices...), nil
}

// runCut is where one backward run ends: end is one past its last kernel
// in the flat backward table, and layer is the weighted layer whose
// gradient is ready when the run ends (nil when the run ends at a step
// without parameters).
type runCut struct {
	end   int
	layer *dnn.WeightedLayer
}

// cutRuns cuts n backward steps, in launch order, into runs: a run ends at
// each parameter step, because that is where a gradient-ready time is
// read, and parameterless steps join the run of the next parameter step.
// A parameter step with no kernels gets an empty run of its own (its
// gradient is "ready" at time zero, as in a per-kernel loop), and any
// trailing parameterless steps form a final run. step(i) returns step i's
// kernel count and layer. The cuts depend only on the plan's shape, so
// every device spec shares them.
func cutRuns(n int, step func(i int) (kernels int, layer *dnn.WeightedLayer)) []runCut {
	params := 0
	for i := 0; i < n; i++ {
		if _, layer := step(i); layer != nil {
			params++
		}
	}
	cuts := make([]runCut, 0, params+1)
	lo, end := 0, 0
	for i := 0; i < n; i++ {
		k, layer := step(i)
		if layer != nil && k == 0 && end > lo {
			cuts = append(cuts, runCut{end: end})
			lo = end
		}
		end += k
		if layer != nil {
			cuts = append(cuts, runCut{end: end, layer: layer})
			lo = end
		}
	}
	if end > lo {
		cuts = append(cuts, runCut{end: end})
	}
	return cuts
}

// update returns the root's weight-update kernel for the j-th layer with
// parameters, in backward order.
func (t *Trainer) update(j int) cuda.Kernel {
	return cuda.Kernel{Name: sgdUpdate, Dur: t.tables[0].updates[j], Slot: slotSGDUpdate}
}

// updateKernel lowers the root's weight-update kernel for one parameter
// array of size bytes.
func (t *Trainer) updateKernel(size units.Bytes) cuda.Kernel {
	spec := t.rt.Device(t.backend.Root()).Spec
	return t.rt.NewKernel(sgdUpdate, spec.KernelDuration(sgdUpdateCost(size)))
}

// array returns the exchange of the j-th layer with parameters, in
// backward order, priced from what was lowered once: each rank's add
// duration from its kernel table and the wire times from t.wires.
func (t *Trainer) array(j int) *kvstore.Array {
	plan := t.tables[0].plan
	k := plan.gradAt[j]
	a := &t.xchg
	a.Size = plan.grads[k]
	if t.wires != nil {
		a.Wire = t.wires[k]
	}
	for i := range a.Adds {
		a.Adds[i] = t.tables[i].adds[k]
	}
	return a
}

// bucket returns the exchange of a fused bucket of size bytes, priced on
// the fly: a bucket's size is arbitrary, so nothing lowered covers it.
func (t *Trainer) bucket(size units.Bytes) *kvstore.Array {
	a := &t.xchg
	a.Size = size
	t.backend.Price(a)
	return a
}

// Memory returns the per-GPU memory estimate.
func (t *Trainer) Memory() memmodel.Estimate { return t.memory }

// Schedule returns the epoch's mini-batch plan.
func (t *Trainer) Schedule() data.Schedule { return t.schedule }
