// Package cluster simulates a fleet of DGX-1 nodes serving a trace of
// DNN training jobs — the multi-tenant question the paper's single-box
// profile leaves open. The Alibaba-PAI characterization (PAPERS.md)
// shows production DL clusters dominated by many small, short, highly
// repetitive jobs next to a long tail of large multi-GPU ones; Planaria
// (SNIPPETS.md §3) shows multi-tenant placement policy is itself a
// first-order performance lever. This package puts both on top of the
// existing single-node simulator: every node is a (possibly
// fault-degraded) simulated DGX-1, and a job's service time is the epoch
// time the core path simulates for its workload on that node's fabric.
//
// The model is a deterministic discrete-event loop in virtual time:
//
//   - A Spec declares the fleet (node count, per-node fault plans) and a
//     workload trace — an explicit job list, or a generated mix (seeded
//     Poisson arrivals over zoo models with PAI-style size weights and
//     heavy-tailed repetition).
//   - Each node contributes 8 GPU slots. Placement is a capacity model:
//     a job occupies its GPU count for its service time and co-located
//     jobs do not interfere beyond occupying slots; a job placed on a
//     node runs as if on devices 0..n-1 of that node's (possibly
//     faulted) machine. Fabric faults therefore price into every job on
//     the node through the node's fault plan.
//   - Service times come from the core compile/extrapolate path and are
//     memoized by normalized workload (job template x node plan), so a
//     10k-job trace prices each distinct configuration exactly once.
//   - Placement policies are pluggable behind the Policy interface
//     (first-fit, best-fit bin-packing, fragmentation-aware), and the
//     pending queue is ordered FIFO or shortest-job-first.
//
// Outputs are cluster-level: JCT and queueing-delay distributions,
// per-node and fleet GPU utilization, and makespan. Everything is
// virtual-time arithmetic over deterministic simulations — the same Spec
// always produces byte-identical results, never consulting the wall
// clock — so policies compare exactly, and the dgxsimd endpoint and the
// experiments fleet sweep reproduce.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/train"
)

// NodeGPUs is a DGX-1 node's GPU slot count — the default when a node
// group names no hardware. Other machines set their own capacity (a
// DGX-2 node offers 16 slots).
const NodeGPUs = 8

// Bounds keeping a hostile or runaway spec from exhausting the process.
const (
	// MaxNodes bounds the fleet size.
	MaxNodes = 256
	// MaxJobs bounds the trace length (explicit or generated).
	MaxJobs = 100000
)

// NodeSpec declares one group of identical nodes in the fleet.
type NodeSpec struct {
	// Count is how many nodes this entry contributes (default 1).
	Count int `json:"count,omitempty"`
	// Hardware names the group's machine ("dgx1" default, "dgx2", ...).
	// The machine sets each node's GPU slot count (a DGX-2 node offers
	// 16) and the fabric every job placed there is priced on.
	Hardware string `json:"hardware,omitempty"`
	// Faults degrades every node in the group (nil = healthy). The plan
	// validates against the DGX-1 wiring exactly as single-node plans do,
	// so it requires the group's hardware to be the DGX-1.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// Job is one arrival in the trace: a single-node training workload plus
// its virtual arrival time and back-to-back repetition count.
type Job struct {
	// Name labels the job in errors (default "job[i]").
	Name string `json:"name,omitempty"`
	// Model is a zoo name: lenet, alexnet, googlenet, inception-v3, resnet.
	Model string `json:"model"`
	// GPUs is the job's device demand (a job never spans nodes, so it
	// must fit some declared node group's machine — 8 slots on a DGX-1,
	// 16 on a DGX-2).
	GPUs int `json:"gpus"`
	// Batch is the per-GPU mini-batch size.
	Batch int `json:"batch"`
	// Method is the communication method (default nccl).
	Method train.Method `json:"method,omitempty"`
	// Images per epoch (default: the paper's 256K).
	Images int64 `json:"images,omitempty"`
	// Arrival is the job's virtual arrival offset from trace start.
	Arrival time.Duration `json:"arrivalNs"`
	// Repeats runs the epoch back-to-back this many times while holding
	// the job's GPUs (default 1). The repetitions share one priced
	// service time — the artifact/result is computed once.
	Repeats int `json:"repeats,omitempty"`
}

// workload lowers the job to the single-node core workload it would be
// on a node of the given hardware carrying the given fault plan. Every
// input it reads is also a field of priceKey.
func (j Job) workload(plan *faults.Plan, hardware string) core.Workload {
	return core.Workload{
		Model:    j.Model,
		GPUs:     j.GPUs,
		Batch:    j.Batch,
		Method:   j.Method,
		Images:   j.Images,
		Faults:   plan,
		Hardware: hardware,
	}
}

// Mix declares a generated workload trace modeled on the Alibaba-PAI
// characterization: Poisson arrivals over a job population dominated by
// small, short, highly repetitive single-GPU jobs with a long tail of
// large multi-GPU ones. Generation is fully determined by (Mix, Spec.Seed).
type Mix struct {
	// Jobs is how many arrivals to generate (1..MaxJobs).
	Jobs int `json:"jobs"`
	// MeanInterarrival is the mean of the exponential inter-arrival time
	// (default 45s virtual). Smaller means a more contended fleet.
	MeanInterarrival time.Duration `json:"meanInterarrivalNs,omitempty"`
	// MaxRepeats caps the heavy-tailed resubmission count of one sampled
	// job template (default 12). Repetition here is PAI-style recurrence:
	// the same template re-arrives as separate jobs, all sharing one
	// priced service time.
	MaxRepeats int `json:"maxRepeats,omitempty"`
}

// Spec declares one fleet simulation.
type Spec struct {
	// Nodes is the fleet, in node-index order, expanded by Count.
	Nodes []NodeSpec `json:"nodes"`
	// Jobs is the explicit trace. Exactly one of Jobs and Mix must be set.
	Jobs []Job `json:"jobs,omitempty"`
	// Mix generates the trace instead (seeded by Seed).
	Mix *Mix `json:"mix,omitempty"`
	// Policy names the placement policy: first-fit (default), best-fit,
	// or frag-aware.
	Policy string `json:"policy,omitempty"`
	// Queue names the pending-queue discipline: fifo (default) or sjf.
	Queue string `json:"queue,omitempty"`
	// Seed drives trace generation (default 1). Same seed, same trace.
	Seed int64 `json:"seed,omitempty"`
}

// Validate checks the spec without simulating it. Job workloads are
// checked with the same core validation every single-node entry point
// uses, so a job this accepts never fails pricing for spelling reasons.
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes declared")
	}
	total := 0
	for i, n := range s.Nodes {
		count := n.Count
		if count == 0 {
			count = 1
		}
		if count < 0 {
			return fmt.Errorf("cluster: nodes[%d]: count %d must be positive", i, n.Count)
		}
		total += count
		if _, err := train.MachineByName(n.Hardware); err != nil {
			return fmt.Errorf("cluster: nodes[%d]: %w", i, err)
		}
		if err := n.Faults.Validate(); err != nil {
			return fmt.Errorf("cluster: nodes[%d]: %w", i, err)
		}
		if err := n.Faults.CheckHardware(n.Hardware); err != nil {
			return fmt.Errorf("cluster: nodes[%d]: %w", i, err)
		}
	}
	if total > MaxNodes {
		return fmt.Errorf("cluster: fleet of %d nodes exceeds the %d-node cap", total, MaxNodes)
	}
	switch {
	case len(s.Jobs) == 0 && s.Mix == nil:
		return fmt.Errorf("cluster: no trace: declare jobs or a mix")
	case len(s.Jobs) > 0 && s.Mix != nil:
		return fmt.Errorf("cluster: jobs and mix are mutually exclusive")
	}
	if len(s.Jobs) > MaxJobs {
		return fmt.Errorf("cluster: trace of %d jobs exceeds the %d-job cap", len(s.Jobs), MaxJobs)
	}
	for i, j := range s.Jobs {
		if err := j.workload(nil, s.estimateHardware(j.GPUs)).Validate(); err != nil {
			return fmt.Errorf("cluster: %s: %w", jobName(j, i), err)
		}
		if j.Arrival < 0 {
			return fmt.Errorf("cluster: %s: negative arrival time", jobName(j, i))
		}
		if j.Repeats < 0 {
			return fmt.Errorf("cluster: %s: negative repeat count", jobName(j, i))
		}
	}
	if m := s.Mix; m != nil {
		if m.Jobs < 1 || m.Jobs > MaxJobs {
			return fmt.Errorf("cluster: mix of %d jobs outside 1..%d", m.Jobs, MaxJobs)
		}
		if m.MeanInterarrival < 0 {
			return fmt.Errorf("cluster: negative mean interarrival")
		}
		if m.MaxRepeats < 0 {
			return fmt.Errorf("cluster: negative max repeats")
		}
	}
	if _, err := policyByName(policyOrDefault(s.Policy)); err != nil {
		return err
	}
	if _, err := queueByName(queueOrDefault(s.Queue)); err != nil {
		return err
	}
	return nil
}

// Normalize returns the canonical spelling of a valid spec: defaults made
// explicit (policy, queue, seed, per-job name/method/repeats, mix knobs)
// and node groups left as declared. Simulate normalizes internally; the
// explicit form is what the service echoes.
func (s Spec) Normalize() Spec {
	out := s
	out.Policy = policyOrDefault(s.Policy)
	out.Queue = queueOrDefault(s.Queue)
	if out.Seed == 0 {
		out.Seed = 1
	}
	if len(s.Jobs) > 0 {
		out.Jobs = append([]Job(nil), s.Jobs...)
		for i := range out.Jobs {
			out.Jobs[i] = normalizeJob(out.Jobs[i], i)
		}
	}
	if s.Mix != nil {
		m := *s.Mix
		if m.MeanInterarrival == 0 {
			m.MeanInterarrival = DefaultMeanInterarrival
		}
		if m.MaxRepeats == 0 {
			m.MaxRepeats = DefaultMaxRepeats
		}
		out.Mix = &m
	}
	return out
}

func normalizeJob(j Job, i int) Job {
	if j.Name == "" {
		j.Name = fmt.Sprintf("job[%d]", i)
	}
	if j.Method == "" {
		j.Method = core.NCCL
	}
	if j.Repeats == 0 {
		j.Repeats = 1
	}
	return j
}

func jobName(j Job, i int) string {
	if j.Name != "" {
		return j.Name
	}
	return fmt.Sprintf("job[%d]", i)
}

func policyOrDefault(name string) string {
	if name == "" {
		return PolicyFirstFit
	}
	return name
}

func queueOrDefault(name string) string {
	if name == "" {
		return QueueFIFO
	}
	return name
}

// estimateHardware picks the hardware a job of the given GPU demand
// would be validated and estimated against: the first declared node
// group whose machine capacity fits the demand, falling back to the
// first group so validation errors cite a machine the fleet actually
// has. (A valid spec never hits a call with an unknown machine name —
// Validate rejects those first — but the helper tolerates it by
// treating the group as a default DGX-1.)
func (s Spec) estimateHardware(gpus int) string {
	first := ""
	for i, n := range s.Nodes {
		if i == 0 {
			first = n.Hardware
		}
		m, err := train.MachineByName(n.Hardware)
		if err != nil {
			continue
		}
		if gpus <= m.GPUs {
			return n.Hardware
		}
	}
	return first
}

// nodeTemplate is one materialized node: its fault plan plus the
// capacity and hardware name its machine contributes.
type nodeTemplate struct {
	plan     *faults.Plan
	hardware string
	gpus     int
}

// expandNodes materializes the fleet as per-node templates, in node
// index order. Unknown machine names (pre-validation callers) fall back
// to the DGX-1 slot count.
func expandNodes(specs []NodeSpec) []nodeTemplate {
	var out []nodeTemplate
	for _, n := range specs {
		count := n.Count
		if count == 0 {
			count = 1
		}
		gpus := NodeGPUs
		if m, err := train.MachineByName(n.Hardware); err == nil {
			gpus = m.GPUs
		}
		for i := 0; i < count; i++ {
			out = append(out, nodeTemplate{plan: n.Faults, hardware: n.Hardware, gpus: gpus})
		}
	}
	return out
}

// Dist summarizes a virtual-time distribution (nearest-rank quantiles).
type Dist struct {
	Mean time.Duration `json:"meanNs"`
	P50  time.Duration `json:"p50Ns"`
	P90  time.Duration `json:"p90Ns"`
	P99  time.Duration `json:"p99Ns"`
	Max  time.Duration `json:"maxNs"`
}

// NodeStat is one node's share of the simulation.
type NodeStat struct {
	Node int `json:"node"`
	// Faulted reports whether the node carries a non-zero fault plan.
	Faulted bool `json:"faulted"`
	// Jobs is how many jobs the scheduler placed here.
	Jobs int `json:"jobs"`
	// Utilization is busy GPU-time over the node's GPU count x makespan.
	Utilization float64 `json:"utilization"`
}

// Result is the cluster-level outcome of one simulated trace.
type Result struct {
	// Policy, Queue, Seed echo the normalized scheduling configuration.
	Policy string `json:"policy"`
	Queue  string `json:"queue"`
	Seed   int64  `json:"seed"`

	// Nodes and GPUs describe the fleet; Jobs the trace length.
	Nodes int `json:"nodes"`
	GPUs  int `json:"gpus"`
	Jobs  int `json:"jobs"`

	// Makespan is the virtual time from first arrival to last completion.
	Makespan time.Duration `json:"makespanNs"`
	// JCT is the job-completion-time distribution (completion - arrival).
	JCT Dist `json:"jct"`
	// QueueDelay is the time jobs spent pending before placement.
	QueueDelay Dist `json:"queueDelay"`
	// FleetUtilization is busy GPU-time over fleet GPU-time (makespan).
	FleetUtilization float64 `json:"fleetUtilization"`
	// PerNode breaks placement and utilization down by node.
	PerNode []NodeStat `json:"perNode"`

	// SchedulingEpochs counts the event-loop passes the trace took.
	SchedulingEpochs int `json:"schedulingEpochs"`
	// DistinctServices counts the distinct (template x node plan)
	// workloads actually priced through the simulator — the artifact
	// reuse that keeps long repetitive traces cheap.
	DistinctServices int `json:"distinctServices"`
}
