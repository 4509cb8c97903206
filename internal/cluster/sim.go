// The discrete-event loop. Virtual time advances from event to event
// (arrivals and completions); every distinct event instant that changes
// fleet state is followed by one scheduling epoch — scan the pending
// queue in order and place every job the policy finds a node for
// (backfill: jobs that do not fit are skipped, not blocking). The queue
// is kept in scan order as jobs arrive, so an epoch costs only its scan.
// The loop is pure arithmetic over priced service times: no wall clock,
// no goroutines, no map iteration — the same Spec always walks the same
// timeline.
package cluster

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/train"
)

// pendingJob is one queued arrival.
type pendingJob struct {
	job Job
	// seq is the arrival's trace index — the deterministic tiebreak for
	// same-instant arrivals and equal SJF estimates.
	seq int
	// estimate is the healthy-machine service estimate SJF ranks by.
	estimate time.Duration
}

// node is the event loop's fleet state for one machine beside its
// NodeView, which holds its capacity, fault score and free slots.
type node struct {
	plan     *faults.Plan
	hardware string
	jobs     int
	busyGPU  time.Duration // sum of gpus x service over placed jobs
}

// event is one timeline entry. Completions sort before arrivals at the
// same instant so freed slots are visible to jobs arriving exactly then.
type event struct {
	at   time.Duration
	kind int // 0 completion, 1 arrival
	seq  int
	// arrival payload
	pending *pendingJob
	// completion payload
	node    int
	gpus    int
	arrival time.Duration
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// pricer memoizes job service times by normalized workload (job template
// x node hardware x node fault plan), keyed by value, so a 10k-job trace
// costs one core.EpochTime per distinct configuration and map lookups
// for the rest.
//
// hits sits in front of the memo, keyed by the raw inputs a price
// depends on, so a repeat call skips normalizing the workload and
// encoding its plan. Plans are compared by pointer: every node of a group
// shares one plan, and two pointers to equal plans only cost one extra
// Key, after which the memo still dedupes them. memo alone counts the
// distinct services.
type pricer struct {
	hits map[priceKey]time.Duration
	memo map[core.Key]time.Duration
}

// priceKey is every input of one price: the job's workload fields, the
// node's plan (by pointer) and its hardware.
type priceKey struct {
	model    string
	gpus     int
	batch    int
	method   train.Method
	images   int64
	plan     *faults.Plan
	hardware string
}

func newPricer() *pricer {
	return &pricer{hits: make(map[priceKey]time.Duration), memo: make(map[core.Key]time.Duration)}
}

// price returns the epoch time of one repetition of j on a node of the
// given hardware carrying plan. Normalize folds "" and "dgx1" to the
// same key, so an all-default fleet prices exactly as before the
// hardware axis existed.
func (p *pricer) price(ctx context.Context, j Job, plan *faults.Plan, hardware string) (time.Duration, error) {
	hk := priceKey{j.Model, j.GPUs, j.Batch, j.Method, j.Images, plan, hardware}
	if d, ok := p.hits[hk]; ok {
		return d, nil
	}
	w := j.workload(plan, hardware).Normalize()
	key := w.Key()
	d, ok := p.memo[key]
	if !ok {
		var err error
		if d, err = core.EpochTime(ctx, w); err != nil {
			return 0, fmt.Errorf("cluster: pricing %s: %w", j.Name, err)
		}
		p.memo[key] = d
	}
	p.hits[hk] = d
	return d, nil
}

// epochSpanCap bounds how many scheduling epochs record an obs span: a
// 10k-job trace has thousands of epochs, and a request trace that long
// stops being a timeline and starts being a transcript. The epoch count
// always lands in Result.SchedulingEpochs.
const epochSpanCap = 64

// Simulate runs the spec's trace to completion and returns the
// cluster-level outcome. It is deterministic: the same spec (same seed)
// produces a byte-identical Result, whatever the caller's wall clock or
// core-cache temperature. Cancellation is honoured between scheduling
// epochs and inside every pricing simulation.
func Simulate(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	tr := obs.FromContext(ctx)
	defer tr.StartSpan("cluster.simulate")()

	// views is the fleet as policies see it, in node-index order, and
	// the one record of each node's free slots.
	templates := expandNodes(spec.Nodes)
	nodes := make([]node, len(templates))
	views := make([]NodeView, len(templates))
	totalGPUs := 0
	for i, t := range templates {
		nodes[i] = node{plan: t.plan, hardware: t.hardware}
		views[i] = NodeView{Index: i, FreeGPUs: t.gpus, TotalGPUs: t.gpus, FaultScore: faultScore(t.plan)}
		totalGPUs += t.gpus
	}

	jobs := spec.Jobs
	if spec.Mix != nil {
		endGen := tr.StartSpan("cluster.generate-trace")
		jobs = GenerateTrace(*spec.Mix, spec.Seed)
		for i := range jobs {
			jobs[i] = normalizeJob(jobs[i], i)
		}
		endGen()
	}

	policy, err := policyByName(spec.Policy)
	if err != nil {
		return nil, err
	}
	order, err := queueByName(spec.Queue)
	if err != nil {
		return nil, err
	}

	// Price the healthy-machine estimate of every distinct template up
	// front: SJF ranks by it, and any deterministic workload failure (an
	// OOM batch, say) surfaces here, before the timeline starts. The
	// estimate machine is the first declared group that fits the job, so
	// the ranking stays deterministic on heterogeneous fleets.
	prices := newPricer()
	endPrice := tr.StartSpan("cluster.price-estimates")
	estimates := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		d, err := prices.price(ctx, j, nil, spec.estimateHardware(j.GPUs))
		if err != nil {
			endPrice()
			return nil, err
		}
		estimates[i] = d * time.Duration(j.Repeats)
	}
	endPrice()

	var (
		events   eventQueue
		seq      int
		pending  []*pendingJob
		jcts     []time.Duration
		delays   []time.Duration
		makespan time.Duration
		epochs   int
	)
	push := func(e *event) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}
	for i, j := range jobs {
		push(&event{at: j.Arrival, kind: 1, pending: &pendingJob{job: j, seq: i, estimate: estimates[i]}})
	}
	heap.Init(&events)

	// schedule is one scheduling epoch: scan the queue in order, place.
	// Survivors keep their order, so the queue stays in scan order.
	schedule := func(now time.Duration) error {
		epochs++
		if tr != nil && epochs <= epochSpanCap {
			defer tr.StartSpan(fmt.Sprintf("epoch[%d]", epochs-1))()
		}
		kept := pending[:0]
		for _, pj := range pending {
			pick := policy.Place(pj.job.GPUs, views)
			if pick < 0 {
				kept = append(kept, pj)
				continue
			}
			n := &nodes[pick]
			per, err := prices.price(ctx, pj.job, n.plan, n.hardware)
			if err != nil {
				return err
			}
			service := per * time.Duration(pj.job.Repeats)
			views[pick].FreeGPUs -= pj.job.GPUs
			n.jobs++
			n.busyGPU += service * time.Duration(pj.job.GPUs)
			delays = append(delays, now-pj.job.Arrival)
			push(&event{
				at: now + service, kind: 0,
				node: pick, gpus: pj.job.GPUs,
				arrival: pj.job.Arrival,
			})
		}
		pending = kept
		return nil
	}

	for events.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := events[0].at
		for events.Len() > 0 && events[0].at == now {
			e := heap.Pop(&events).(*event)
			switch e.kind {
			case 0: // completion
				views[e.node].FreeGPUs += e.gpus
				jcts = append(jcts, now-e.arrival)
				if now > makespan {
					makespan = now
				}
			case 1: // arrival
				// Insert at its place in scan order. Arrivals pop in
				// (arrival, trace index) order, so a FIFO arrival
				// always lands at the tail.
				at, _ := slices.BinarySearchFunc(pending, e.pending, order)
				pending = slices.Insert(pending, at, e.pending)
			}
		}
		if err := schedule(now); err != nil {
			return nil, err
		}
	}
	if len(pending) > 0 {
		// Unreachable with validated specs (every job fits an empty
		// node), kept as a guard against a policy that refuses to place.
		return nil, fmt.Errorf("cluster: %d jobs never placed under policy %s", len(pending), spec.Policy)
	}

	res := &Result{
		Policy: spec.Policy,
		Queue:  spec.Queue,
		Seed:   spec.Seed,
		Nodes:  len(nodes),
		GPUs:   totalGPUs,
		Jobs:   len(jobs),

		Makespan:         makespan,
		JCT:              summarize(jcts),
		QueueDelay:       summarize(delays),
		PerNode:          make([]NodeStat, len(nodes)),
		SchedulingEpochs: epochs,
		DistinctServices: len(prices.memo),
	}
	var busy time.Duration
	for i, n := range nodes {
		util := 0.0
		if makespan > 0 {
			util = float64(n.busyGPU) / float64(makespan*time.Duration(views[i].TotalGPUs))
		}
		res.PerNode[i] = NodeStat{Node: i, Faulted: !n.plan.IsZero(), Jobs: n.jobs, Utilization: util}
		busy += n.busyGPU
	}
	if makespan > 0 {
		res.FleetUtilization = float64(busy) / float64(makespan*time.Duration(res.GPUs))
	}
	return res, nil
}

// summarize reduces a virtual-time sample to its distribution stats.
func summarize(ds []time.Duration) Dist {
	if len(ds) == 0 {
		return Dist{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return Dist{
		Mean: sum / time.Duration(len(sorted)),
		P50:  stats.Quantile(sorted, 0.5),
		P90:  stats.Quantile(sorted, 0.9),
		P99:  stats.Quantile(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
	}
}
