package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// twoNodeSpec is a small explicit-trace spec the behavioural tests share:
// two healthy nodes, five jobs arriving close together.
func twoNodeSpec() Spec {
	return Spec{
		Nodes: []NodeSpec{{Count: 2}},
		Jobs: []Job{
			{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096, Arrival: 0},
			{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096, Arrival: 0},
			{Model: "alexnet", GPUs: 4, Batch: 16, Images: 4096, Arrival: time.Second},
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 4096, Arrival: 2 * time.Second},
			{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096, Arrival: 2 * time.Second, Repeats: 3},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }, "no nodes"},
		{"no trace", func(s *Spec) { s.Jobs = nil }, "no trace"},
		{"jobs and mix", func(s *Spec) { s.Mix = &Mix{Jobs: 5} }, "mutually exclusive"},
		{"bad model", func(s *Spec) { s.Jobs[0].Model = "vgg" }, "unknown model"},
		{"bad gpus", func(s *Spec) { s.Jobs[0].GPUs = 9 }, "out of range"},
		{"negative arrival", func(s *Spec) { s.Jobs[0].Arrival = -1 }, "negative arrival"},
		{"negative repeats", func(s *Spec) { s.Jobs[0].Repeats = -1 }, "negative repeat"},
		{"bad policy", func(s *Spec) { s.Policy = "tetris" }, "unknown policy"},
		{"bad queue", func(s *Spec) { s.Queue = "lifo" }, "unknown queue"},
		{"bad plan", func(s *Spec) {
			s.Nodes[0].Faults = &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 5}}}
		}, "no NVLink"},
		{"huge fleet", func(s *Spec) { s.Nodes[0].Count = MaxNodes + 1 }, "cap"},
		{"bad mix size", func(s *Spec) { s.Jobs = nil; s.Mix = &Mix{Jobs: MaxJobs + 1} }, "outside"},
	}
	for _, tc := range cases {
		s := twoNodeSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := twoNodeSpec().Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := twoNodeSpec().Normalize()
	if s.Policy != PolicyFirstFit || s.Queue != QueueFIFO || s.Seed != 1 {
		t.Errorf("defaults not applied: policy=%q queue=%q seed=%d", s.Policy, s.Queue, s.Seed)
	}
	if s.Jobs[0].Method != "nccl" || s.Jobs[0].Repeats != 1 || s.Jobs[0].Name != "job[0]" {
		t.Errorf("job defaults not applied: %+v", s.Jobs[0])
	}
	if s.Jobs[4].Repeats != 3 {
		t.Errorf("explicit repeats overwritten: %+v", s.Jobs[4])
	}
}

func TestSimulateInvariants(t *testing.T) {
	res, err := Simulate(context.Background(), twoNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 5 || res.Nodes != 2 || res.GPUs != 16 {
		t.Fatalf("fleet/trace echo wrong: %+v", res)
	}
	if res.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
	if res.JCT.Mean <= 0 || res.JCT.Max < res.JCT.P99 || res.JCT.P99 < res.JCT.P50 {
		t.Errorf("JCT distribution inconsistent: %+v", res.JCT)
	}
	if res.FleetUtilization <= 0 || res.FleetUtilization > 1 {
		t.Errorf("fleet utilization %v outside (0,1]", res.FleetUtilization)
	}
	placed := 0
	for _, n := range res.PerNode {
		placed += n.Jobs
		if n.Utilization < 0 || n.Utilization > 1 {
			t.Errorf("node %d utilization %v outside [0,1]", n.Node, n.Utilization)
		}
	}
	if placed != res.Jobs {
		t.Errorf("placed %d jobs, trace has %d", placed, res.Jobs)
	}
	if res.SchedulingEpochs == 0 {
		t.Error("no scheduling epochs recorded")
	}
	// Jobs 0, 1, 3 and the repeated job 4 share one lenet template
	// fingerprint per (gpus, plan); the whole trace prices far fewer
	// simulations than it has jobs.
	if res.DistinctServices >= res.Jobs {
		t.Errorf("pricing memo ineffective: %d distinct for %d jobs", res.DistinctServices, res.Jobs)
	}
}

// A job with repeats holds its GPUs for repeats x epoch: its JCT must
// dominate the single-run JCT of the same workload.
func TestRepeatsExtendService(t *testing.T) {
	base := Spec{
		Nodes: []NodeSpec{{}},
		Jobs:  []Job{{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096}},
	}
	one, err := Simulate(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Jobs[0].Repeats = 4
	four, err := Simulate(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if four.JCT.Max < 3*one.JCT.Max {
		t.Errorf("4 repeats JCT %v not ~4x single JCT %v", four.JCT.Max, one.JCT.Max)
	}
	if four.DistinctServices != one.DistinctServices {
		t.Errorf("repeats priced extra simulations: %d vs %d", four.DistinctServices, one.DistinctServices)
	}
}

// Backfill: a queued 8-GPU job must not block a 1-GPU job that fits on
// the other node.
func TestBackfillSkipsBlockedHead(t *testing.T) {
	spec := Spec{
		Nodes: []NodeSpec{{Count: 2}},
		Jobs: []Job{
			// Occupy node 0 fully and node 1 partially.
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 262144, Arrival: 0},
			{Model: "lenet", GPUs: 4, Batch: 16, Images: 262144, Arrival: 0},
			// Arrives first among the queued: needs 8, nothing has 8 free.
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 262144, Arrival: time.Millisecond},
			// Arrives later but fits node 1 now; backfill must place it.
			{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096, Arrival: 2 * time.Millisecond},
		},
	}
	res, err := Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The small job's queue delay is ~0 under backfill; under strict
	// head-of-line blocking it would wait a whole 256K-image epoch.
	if res.QueueDelay.P50 > time.Minute {
		t.Errorf("backfill failed: median queue delay %v", res.QueueDelay.P50)
	}
}

// Cancellation propagates out of the event loop.
func TestSimulateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, twoNodeSpec()); err == nil {
		t.Error("cancelled simulate should fail")
	}
}

// SJF must complete short jobs ahead of a long head-of-queue job when
// both are pending on a saturated fleet.
func TestSJFFavoursShortJobs(t *testing.T) {
	spec := Spec{
		Nodes: []NodeSpec{{}},
		Jobs: []Job{
			// Saturate the node so everything below queues.
			{Model: "alexnet", GPUs: 8, Batch: 16, Images: 65536, Arrival: 0},
			// Long job arrives before the short ones.
			{Model: "inception-v3", GPUs: 8, Batch: 16, Images: 262144, Arrival: time.Second},
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 4096, Arrival: 2 * time.Second},
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 4096, Arrival: 3 * time.Second},
		},
	}
	fifo, err := Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Queue = QueueSJF
	sjf, err := Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sjf.JCT.P50 >= fifo.JCT.P50 {
		t.Errorf("SJF median JCT %v not better than FIFO %v", sjf.JCT.P50, fifo.JCT.P50)
	}
	if sjf.Makespan != fifo.Makespan {
		t.Errorf("work-conserving disciplines on one node should share a makespan: %v vs %v", sjf.Makespan, fifo.Makespan)
	}
}

// On a fleet whose first node is badly degraded, the fragmentation/
// fault-aware policy must beat first-fit's tail JCT: first-fit keeps
// feeding the sick node, frag-aware steers onto healthy fabric.
func TestFragAwareBeatsFirstFitOnDegradedFleet(t *testing.T) {
	sick := &faults.Plan{
		FailedLinks: []faults.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}, {A: 0, B: 6}},
		Stragglers:  []faults.Straggler{{GPU: 0, Slowdown: 2}},
	}
	spec := Spec{
		Nodes: []NodeSpec{{Faults: sick}, {Count: 2}},
		Mix:   &Mix{Jobs: 60, MeanInterarrival: 20 * time.Second},
		Seed:  7,
	}
	ff, err := Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Policy = PolicyFragAware
	fa, err := Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if fa.JCT.P99 >= ff.JCT.P99 {
		t.Errorf("frag-aware p99 JCT %v not better than first-fit %v on degraded fleet", fa.JCT.P99, ff.JCT.P99)
	}
}

// The pricer's raw-input key only skips work: equal plans behind distinct
// pointers and the "" / "dgx1" spellings still land on one core.Key, one
// epoch and one price.
func TestPricerCountsKeys(t *testing.T) {
	p := newPricer()
	job := Job{Model: "lenet", GPUs: 2, Batch: 16, Images: 4096}
	a := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Slowdown: 1.5}}}
	b := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Slowdown: 1.5}}}
	var prices []time.Duration
	keys := map[core.Key]bool{}
	for _, call := range []struct {
		plan     *faults.Plan
		hardware string
	}{{a, ""}, {a, ""}, {b, ""}, {a, "dgx1"}, {nil, ""}} {
		d, err := p.price(context.Background(), job, call.plan, call.hardware)
		if err != nil {
			t.Fatal(err)
		}
		prices = append(prices, d)
		keys[job.workload(call.plan, call.hardware).Key()] = true
	}
	if len(p.memo) != 2 || len(keys) != 2 {
		t.Errorf("%d distinct services over %d core.Keys, want 2 (straggler, healthy)", len(p.memo), len(keys))
	}
	if len(p.hits) != 4 {
		t.Errorf("%d raw keys, want 4", len(p.hits))
	}
	for i := 1; i < 4; i++ {
		if prices[i] != prices[0] {
			t.Errorf("call %d priced %v, want %v", i, prices[i], prices[0])
		}
	}
	if prices[4] == prices[0] {
		t.Errorf("healthy and straggler priced alike (%v)", prices[0])
	}
}
