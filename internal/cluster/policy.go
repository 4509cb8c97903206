// Placement policies and queue disciplines. A Policy sees only the
// placement-relevant view of the fleet (free slots, fault severity) and
// picks a node; the event loop owns everything else. All policies are
// deterministic: candidates are scanned in node-index order and ties
// break toward the lowest index, so a policy never injects ordering
// noise into the virtual timeline.
package cluster

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/faults"
)

// Policy names.
const (
	PolicyFirstFit  = "first-fit"
	PolicyBestFit   = "best-fit"
	PolicyFragAware = "frag-aware"
)

// Queue discipline names.
const (
	QueueFIFO = "fifo"
	QueueSJF  = "sjf"
)

// NodeView is the placement-relevant view of one node.
type NodeView struct {
	// Index is the node's fleet index.
	Index int
	// FreeGPUs is the node's unoccupied slot count.
	FreeGPUs int
	// TotalGPUs is the node's slot count (NodeGPUs).
	TotalGPUs int
	// FaultScore summarizes how degraded the node's fabric is (0 =
	// healthy; roughly one point per failed link / fully-lost lane /
	// 2x straggler).
	FaultScore float64
}

// Policy picks the node a job is placed on.
type Policy interface {
	// Name is the spec spelling of the policy.
	Name() string
	// Place returns the fleet index of the chosen node, or -1 when no
	// node can hold gpus free slots. nodes come in fleet-index order;
	// they are the event loop's live view, which Place only reads.
	Place(gpus int, nodes []NodeView) int
}

// firstFit takes the lowest-indexed node with room — the baseline greedy
// policy, blind to packing and fabric health.
type firstFit struct{}

func (firstFit) Name() string { return PolicyFirstFit }

func (firstFit) Place(gpus int, nodes []NodeView) int {
	for _, n := range nodes {
		if n.FreeGPUs >= gpus {
			return n.Index
		}
	}
	return -1
}

// bestFit bin-packs by GPU count: the node whose free slots exceed the
// demand by the least, keeping large contiguous capacity available for
// large jobs. Ties break toward the lowest index.
type bestFit struct{}

func (bestFit) Name() string { return PolicyBestFit }

func (bestFit) Place(gpus int, nodes []NodeView) int {
	best, bestSlack := -1, 0
	for _, n := range nodes {
		if n.FreeGPUs < gpus {
			continue
		}
		slack := n.FreeGPUs - gpus
		if best == -1 || slack < bestSlack {
			best, bestSlack = n.Index, slack
		}
	}
	return best
}

// fragAware scores candidates by what the placement does to the fabric's
// useful shape. The DGX-1's hybrid cube-mesh is built from two
// fully-connected 4-GPU quads, so NVLink-efficient jobs want whole quads:
// the policy penalizes placements that leave a node's free capacity as a
// broken quad (free % 4), penalizes breaking a pristine node with a
// small job (keep empty nodes available for 4- and 8-GPU arrivals), and
// — the fleet-health half — penalizes faulted nodes in proportion to
// their degradation, steering work onto healthy fabric while the sick
// node still absorbs overflow rather than idling.
type fragAware struct{}

func (fragAware) Name() string { return PolicyFragAware }

func (fragAware) Place(gpus int, nodes []NodeView) int {
	best, bestScore := -1, 0.0
	for _, n := range nodes {
		if n.FreeGPUs < gpus {
			continue
		}
		after := n.FreeGPUs - gpus
		score := 2*n.FaultScore + float64(after%4)/4
		if n.FreeGPUs == n.TotalGPUs && gpus < 4 {
			score += 0.5
		}
		if best == -1 || score < bestScore {
			best, bestScore = n.Index, score
		}
	}
	return best
}

// policyByName resolves a spec's policy spelling.
func policyByName(name string) (Policy, error) {
	switch name {
	case PolicyFirstFit:
		return firstFit{}, nil
	case PolicyBestFit:
		return bestFit{}, nil
	case PolicyFragAware:
		return fragAware{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (available: %s)", name, strings.Join(Policies(), ", "))
}

// Policies lists the placement policies in presentation order.
func Policies() []string {
	return []string{PolicyFirstFit, PolicyBestFit, PolicyFragAware}
}

// Queues lists the queue disciplines in presentation order.
func Queues() []string { return []string{QueueFIFO, QueueSJF} }

// queueOrder compares two pending jobs in scan order, as cmp.Compare
// does; seq, unique per job, breaks every tie. The loop keeps the queue
// in this order, scans it in this order and backfills: a job that does
// not fit is skipped, not head-of-line blocking (the common
// cluster-scheduler compromise; strict blocking would let one 8-GPU job
// idle the whole fleet).
type queueOrder func(a, b *pendingJob) int

// queueByName resolves a spec's queue spelling.
func queueByName(name string) (queueOrder, error) {
	switch name {
	case QueueFIFO:
		// Arrival order; seq breaks same-instant ties deterministically.
		return func(a, b *pendingJob) int {
			return cmp.Or(cmp.Compare(a.job.Arrival, b.job.Arrival), cmp.Compare(a.seq, b.seq))
		}, nil
	case QueueSJF:
		// Shortest (healthy-machine estimate) first. The estimate is the
		// healthy epoch time x repeats — the scheduler cannot know which
		// node the job will land on, so it ranks by the job's intrinsic
		// size, exactly like an SJF queue fed by user-declared runtimes.
		return func(a, b *pendingJob) int {
			return cmp.Or(cmp.Compare(a.estimate, b.estimate), cmp.Compare(a.seq, b.seq))
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown queue %q (available: %s)", name, strings.Join(Queues(), ", "))
}

// faultScore summarizes a plan's severity for NodeView: one point per
// failed link, the lost fraction per degraded lane, the excess factor
// per straggler, and the contended PCIe fraction.
func faultScore(p *faults.Plan) float64 {
	if p.IsZero() {
		return 0
	}
	s := float64(len(p.FailedLinks))
	for _, d := range p.DegradedLinks {
		s += 1 - d.Fraction
	}
	for _, st := range p.Stragglers {
		s += st.Slowdown - 1
	}
	return s + p.PCIeContention
}
