package cluster

import (
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
)

func views(free ...int) []NodeView {
	out := make([]NodeView, len(free))
	for i, f := range free {
		out[i] = NodeView{Index: i, FreeGPUs: f, TotalGPUs: NodeGPUs}
	}
	return out
}

func TestFirstFit(t *testing.T) {
	p := firstFit{}
	if got := p.Place(4, views(2, 8, 8)); got != 1 {
		t.Errorf("first-fit picked %d, want 1", got)
	}
	if got := p.Place(8, views(2, 4, 6)); got != -1 {
		t.Errorf("first-fit placed an unplaceable job on %d", got)
	}
}

func TestBestFitPacksTightest(t *testing.T) {
	p := bestFit{}
	// 2 free slots fits a 2-GPU job exactly; first-fit would take node 0.
	if got := p.Place(2, views(8, 2, 4)); got != 1 {
		t.Errorf("best-fit picked %d, want 1 (tightest fit)", got)
	}
	// Ties break toward the lowest index.
	if got := p.Place(4, views(4, 4)); got != 0 {
		t.Errorf("best-fit tie picked %d, want 0", got)
	}
}

func TestFragAwarePrefersWholeQuads(t *testing.T) {
	p := fragAware{}
	// A 4-GPU job on a node with 6 free leaves a broken quad (2); on a
	// node with 4 free it leaves none.
	if got := p.Place(4, views(6, 4)); got != 1 {
		t.Errorf("frag-aware picked %d, want 1 (keeps quads whole)", got)
	}
	// A small job should avoid breaking a pristine node when a
	// fragmented one is available.
	if got := p.Place(1, views(8, 5)); got != 1 {
		t.Errorf("frag-aware picked %d, want 1 (spare the pristine node)", got)
	}
}

func TestFragAwarePenalizesFaultedNodes(t *testing.T) {
	p := fragAware{}
	vs := views(8, 8)
	vs[0].FaultScore = 4.75
	if got := p.Place(8, vs); got != 1 {
		t.Errorf("frag-aware picked the faulted node %d, want 1", got)
	}
	// With only the faulted node free, it still places there rather than
	// queueing forever.
	vs[1].FreeGPUs = 0
	if got := p.Place(8, vs); got != 0 {
		t.Errorf("frag-aware refused the only candidate, got %d", got)
	}
}

func TestQueueOrdering(t *testing.T) {
	mk := func(seq int, arrival, est time.Duration) *pendingJob {
		return &pendingJob{seq: seq, estimate: est, job: Job{Arrival: arrival}}
	}
	pending := []*pendingJob{
		mk(0, 3*time.Second, 10*time.Second),
		mk(1, 1*time.Second, 30*time.Second),
		mk(2, 2*time.Second, 20*time.Second),
	}
	fifo, err := queueByName(QueueFIFO)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(pending, fifo)
	if pending[0].seq != 1 || pending[1].seq != 2 || pending[2].seq != 0 {
		t.Errorf("fifo order wrong: %d %d %d", pending[0].seq, pending[1].seq, pending[2].seq)
	}
	sjf, err := queueByName(QueueSJF)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(pending, sjf)
	if pending[0].seq != 0 || pending[1].seq != 2 || pending[2].seq != 1 {
		t.Errorf("sjf order wrong: %d %d %d", pending[0].seq, pending[1].seq, pending[2].seq)
	}
}

func TestFaultScore(t *testing.T) {
	if got := faultScore(nil); got != 0 {
		t.Errorf("healthy score %v, want 0", got)
	}
	p := &faults.Plan{
		FailedLinks:    []faults.Link{{A: 0, B: 1}},
		DegradedLinks:  []faults.Degrade{{A: 0, B: 2, Fraction: 0.4}},
		Stragglers:     []faults.Straggler{{GPU: 3, Slowdown: 1.5}},
		PCIeContention: 0.25,
	}
	want := 1 + 0.6 + 0.5 + 0.25
	if got := faultScore(p); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("faultScore = %v, want %v", got, want)
	}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range Policies() {
		p, err := policyByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("policyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := policyByName("random"); err == nil {
		t.Error("unknown policy should error")
	}
	for _, name := range Queues() {
		if _, err := queueByName(name); err != nil {
			t.Errorf("queueByName(%q): %v", name, err)
		}
	}
}
