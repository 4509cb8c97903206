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
	"repro/internal/sim"
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
	// SimIters is how many iterations to simulate exactly before
	// extrapolating (>= 2; default 4).
	SimIters int
	// DetailIntervals retains that many profiler intervals for timeline
	// export (0 = aggregates only).
	DetailIntervals int
	// SkipMemoryCheck disables the OOM gate (used to probe hypothetical
	// configurations).
	SkipMemoryCheck bool
	// RoutePolicy overrides peer-copy routing (default staged NVLink).
	RoutePolicy topology.RoutePolicy
	// Async enables the asynchronous-SGD extension: no inter-GPU barrier;
	// each GPU exchanges with the server independently.
	Async bool
	// Hardware names a registered machine ("dgx1" default, "dgx1-pascal",
	// "dgx2", "dgx-a100", "dgx-h100") resolving to a (topology, GPU spec)
	// pair. Mutually exclusive with a non-default name and Topology.
	Hardware string
	// Protocol selects the NCCL transfer protocol ("simple" default,
	// "ll", "ll128", "auto"). "auto" picks protocol and ring-vs-tree
	// algorithm per collective by message size and fabric; it therefore
	// conflicts with NCCLTree, which pins the algorithm.
	Protocol string
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
	// (default: 4x the stage count).
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
	// NCCLTree selects NCCL's double-binary-tree algorithm instead of the
	// rings the paper measured — the later NCCL release's answer to the
	// small-message latency the paper identified.
	NCCLTree bool
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
	if _, err := nccl.ParseProtocol(c.Protocol); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if c.NCCLTree && c.Protocol == "auto" {
		return fmt.Errorf("train: protocol \"auto\" picks the algorithm per collective; clear NCCLTree")
	}
	if c.Batch <= 0 {
		return fmt.Errorf("train: bad batch size %d", c.Batch)
	}
	if c.Method == "" {
		c.Method = kvstore.MethodNCCL
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

// IdleSpread returns the difference between the busiest and least busy
// GPU's compute fraction — zero on a single GPU, growing with the
// synchronization and aggregation imbalance.
func (r *Result) IdleSpread() float64 {
	var min, max float64
	first := true
	for _, f := range r.GPUComputeBusy {
		if first {
			min, max = f, f
			first = false
			continue
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	return max - min
}

// FPBPWall returns the combined computation wall time (as Figure 4 plots).
func (r *Result) FPBPWall() time.Duration { return r.FPWall + r.BPWall }

// Trainer holds one run's simulation state.
type Trainer struct {
	cfg     Config
	eng     *sim.Engine
	fab     *interconnect.Fabric
	rt      *cuda.Runtime
	prof    *profiler.Profile
	backend kvstore.Backend
	devs    []topology.NodeID

	// compute[i] is devs[i]'s training stream.
	compute []*cuda.Stream

	fwd []gpu.KernelCost
	bwd []dnn.BackwardStep
	// tables[i] is the plan lowered for devs[i]'s spec; devices sharing a
	// spec share one table.
	tables []*kernelTable
	// updates[j] is the root's weight-update kernel for the j-th layer
	// with parameters, in backward order.
	updates  []cuda.Kernel
	schedule data.Schedule
	memory   memmodel.Estimate

	// grads is runIteration's per-layer scratch, reused across iterations.
	grads []layerGrad
	// ran guards the single-shot simulation (the engine is consumed).
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
func New(cfg Config) (*Trainer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	top := cfg.Topology
	machineSpec := gpu.V100()
	if top == nil {
		if isDefaultHardware(cfg.Hardware) {
			// The fault plan owns the fabric: failed bricks vanish from
			// the link graph (ring search and routing see the degraded
			// machine), degraded links lose bandwidth, PCIe contention
			// shrinks the host links. A nil plan builds the healthy DGX-1.
			top = cfg.Faults.Topology()
		} else {
			// normalize already resolved the name and rejected fault
			// plans on non-DGX-1 hardware.
			m, err := MachineByName(cfg.Hardware)
			if err != nil {
				return nil, err
			}
			top = m.Build()
			machineSpec = m.Spec()
		}
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	if n := len(top.GPUs()); cfg.GPUs > n {
		return nil, fmt.Errorf("train: topology has %d GPUs, requested %d", n, cfg.GPUs)
	}
	fab := interconnect.New(eng, top)
	var prof *profiler.Profile
	if cfg.DetailIntervals > 0 {
		prof = profiler.NewDetailed(cfg.DetailIntervals)
	} else {
		prof = profiler.New()
	}
	devs := cfg.Devices
	if devs == nil {
		devs = make([]topology.NodeID, cfg.GPUs)
		for i := range devs {
			devs[i] = topology.NodeID(i)
		}
	} else {
		if len(devs) != cfg.GPUs {
			return nil, fmt.Errorf("train: %d devices pinned for %d GPUs", len(devs), cfg.GPUs)
		}
		seen := map[topology.NodeID]bool{}
		for _, d := range devs {
			if seen[d] {
				return nil, fmt.Errorf("train: duplicate device %d", d)
			}
			seen[d] = true
		}
		devs = append([]topology.NodeID(nil), devs...)
	}
	spec := machineSpec
	if cfg.GPUSpec != nil {
		spec = *cfg.GPUSpec
	}
	// Straggler GPUs run a uniformly slowed spec; healthy devices keep the
	// base spec.
	rt, err := cuda.NewRuntimeWithSpecs(fab, spec, cfg.Faults.Specs(spec), devs, cuda.DefaultCosts(), prof)
	if err != nil {
		return nil, err
	}
	rt.SetRoutePolicy(cfg.RoutePolicy)
	ncfg := nccl.DefaultConfig()
	if cfg.NCCLTree {
		ncfg.Algorithm = nccl.AlgoTree
	}
	// normalize already vetted the spelling; the parse cannot fail here.
	ncfg.Protocol, _ = nccl.ParseProtocol(cfg.Protocol)
	backend, err := kvstore.NewWithNCCL(cfg.Method, rt, devs, ncfg)
	if err != nil {
		return nil, err
	}

	t := &Trainer{
		cfg:     cfg,
		eng:     eng,
		fab:     fab,
		rt:      rt,
		prof:    prof,
		backend: backend,
		devs:    devs,
		compute: make([]*cuda.Stream, len(devs)),
	}
	for i, d := range devs {
		t.compute[i] = rt.Stream(d, "train")
	}

	opts := dnn.PlanOptions{TensorCores: cfg.TensorCores, Winograd: cfg.Winograd}
	t.fwd = cfg.Model.Net.ForwardPlan(cfg.Batch, opts)
	t.bwd = cfg.Model.Net.BackwardPlan(cfg.Batch, opts)
	t.tables = perSpec(t, t.lower)
	for _, step := range t.bwd {
		if step.Layer != nil {
			t.updates = append(t.updates, t.updateKernel(units.BytesOf(step.Layer.Params, units.Float32Size)))
		}
	}
	t.grads = make([]layerGrad, 0, len(t.updates))

	ds := data.ImageNetSubset(cfg.Images)
	t.schedule, err = data.NewSchedule(ds, cfg.Model.InputShape, cfg.Batch, cfg.GPUs)
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
	if !cfg.SkipMemoryCheck {
		if err := t.allocateMemory(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// kernelTable is the trainer's kernel plan lowered for one device spec:
// every entry carries its duration on that spec and its profile slot, so
// the schedules launch without recomputing either.
type kernelTable struct {
	fwd []cuda.Kernel
	// recompute is fwd relabeled for gradient checkpointing's extra
	// forward pass during BP (nil without checkpointing).
	recompute []cuda.Kernel
	// bwd[i] is backward step i's kernels.
	bwd [][]cuda.Kernel
}

// lower builds the kernel table of the trainer's plan for one spec.
func (t *Trainer) lower(spec gpu.Spec) *kernelTable {
	tab := &kernelTable{fwd: t.rt.Lower(nil, spec, t.fwd), bwd: make([][]cuda.Kernel, len(t.bwd))}
	if t.cfg.Checkpointing {
		tab.recompute = make([]cuda.Kernel, len(tab.fwd))
		for i, k := range tab.fwd {
			tab.recompute[i] = t.rt.NewKernel("recompute_"+k.Name, k.Dur)
		}
	}
	n := 0
	for _, step := range t.bwd {
		n += len(step.Kernels)
	}
	flat := make([]cuda.Kernel, 0, n)
	for i, step := range t.bwd {
		lo := len(flat)
		flat = t.rt.Lower(flat, spec, step.Kernels)
		tab.bwd[i] = flat[lo:len(flat):len(flat)]
	}
	return tab
}

// perSpec calls lower once per distinct device spec and returns each
// device's result, indexed like t.devs: healthy devices share one, and
// each straggler spec gets its own.
func perSpec[T any](t *Trainer, lower func(gpu.Spec) T) []T {
	out := make([]T, len(t.devs))
	var specs []gpu.Spec
	var lowered []T
	for i, d := range t.devs {
		spec := t.rt.Device(d).Spec
		j := 0
		for j < len(specs) && specs[j] != spec {
			j++
		}
		if j == len(specs) {
			specs = append(specs, spec)
			lowered = append(lowered, lower(spec))
		}
		out[i] = lowered[j]
	}
	return out
}

// updateKernel lowers the root's weight-update kernel for one parameter
// array of size bytes.
func (t *Trainer) updateKernel(size units.Bytes) cuda.Kernel {
	spec := t.rt.Device(t.backend.Root()).Spec
	return t.rt.NewKernel("sgd_update", spec.KernelDuration(sgdUpdateCost(size)))
}

// allocateMemory reserves the estimated footprint on every device,
// surfacing OOM exactly where nvidia-smi would show it.
func (t *Trainer) allocateMemory() error {
	for _, d := range t.devs {
		dev := t.rt.Device(d)
		est := t.memory
		use := est.Worker()
		if d == t.backend.Root() {
			use = est.Root()
		}
		if err := dev.Memory.Alloc("training", use+memmodel.DriverReserve); err != nil {
			return fmt.Errorf("train: %s batch %d on %d GPUs: %w",
				t.cfg.Model.Name, t.cfg.Batch, t.cfg.GPUs, err)
		}
	}
	return nil
}

// RunEpochs simulates a training session of n epochs. Setup (framework
// startup, communicator construction, initial model broadcast) is paid
// once; each subsequent epoch repeats the steady schedule — the paper's
// observation that per-epoch stage times are constant, made explicit. The
// returned Result covers the whole session, with Iterations summed.
func (t *Trainer) RunEpochs(n int) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("train: epoch count %d out of range", n)
	}
	first, err := t.Run()
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return first, nil
	}
	perEpoch := first.EpochTime - first.SetupTime
	out := *first
	out.EpochTime = first.SetupTime + time.Duration(n)*perEpoch
	out.Iterations = first.Iterations * int64(n)
	out.FPWall *= time.Duration(n)
	out.BPWall *= time.Duration(n)
	out.WUWall *= time.Duration(n)
	out.Throughput = float64(int64(n)*t.schedule.Images) / out.EpochTime.Seconds()
	return &out, nil
}

// Memory returns the per-GPU memory estimate.
func (t *Trainer) Memory() memmodel.Estimate { return t.memory }

// Schedule returns the epoch's mini-batch plan.
func (t *Trainer) Schedule() data.Schedule { return t.schedule }
