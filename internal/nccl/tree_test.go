package nccl

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestBuildTreeStructure(t *testing.T) {
	for n := 1; n <= 16; n++ {
		tr, err := BuildTree(n)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Parent[tr.Root] != -1 {
			t.Fatalf("n=%d: root has a parent", n)
		}
		// Every non-root rank has a parent; edge count is n-1.
		edges := 0
		for r := 0; r < n; r++ {
			if len(tr.Children[r]) > 2 {
				t.Fatalf("n=%d: rank %d has %d children", n, r, len(tr.Children[r]))
			}
			edges += len(tr.Children[r])
			if r != tr.Root && tr.Parent[r] < 0 {
				t.Fatalf("n=%d: rank %d orphaned", n, r)
			}
		}
		if edges != n-1 {
			t.Fatalf("n=%d: %d edges, want %d", n, edges, n-1)
		}
		// Balanced depth: <= ceil(log2(n+1)).
		want := 0
		for v := n; v > 0; v >>= 1 {
			want++
		}
		if tr.Depth > want {
			t.Fatalf("n=%d: depth %d exceeds %d", n, tr.Depth, want)
		}
	}
	if _, err := BuildTree(0); err == nil {
		t.Error("0 ranks should error")
	}
}

func TestMirrorIsValidTree(t *testing.T) {
	tr, err := BuildTree(8)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Mirror()
	if m.Parent[m.Root] != -1 {
		t.Fatal("mirror root has a parent")
	}
	edges := 0
	for r := range m.Children {
		edges += len(m.Children[r])
	}
	if edges != 7 {
		t.Fatalf("mirror edges = %d", edges)
	}
	if m.Root != 7-tr.Root {
		t.Errorf("mirror root = %d, want %d", m.Root, 7-tr.Root)
	}
}

func TestTreeAllReduceMatchesNaiveSum(t *testing.T) {
	f := func(seed int64, nr, ne uint8) bool {
		ranks := int(nr%8) + 1
		elems := int(ne%60) + 1
		rng := rand.New(rand.NewSource(seed))
		bufs := randBufs(rng, ranks, elems)
		want := naiveSum(bufs)
		if err := TreeAllReduce(bufs); err != nil {
			return false
		}
		for r := range bufs {
			for i := range bufs[r] {
				if !approxEq(bufs[r][i], want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTreeAllReduceErrors(t *testing.T) {
	if err := TreeAllReduce(nil); err == nil {
		t.Error("empty should error")
	}
	if err := TreeAllReduce([][]float32{{1}, {1, 2}}); err == nil {
		t.Error("ragged should error")
	}
	one := [][]float32{{1, 2}}
	if err := TreeAllReduce(one); err != nil || one[0][0] != 1 {
		t.Error("single rank should be a no-op")
	}
}

// The timed model: at 8 GPUs the tree algorithm must beat the ring for
// small messages (latency) and roughly tie for large ones (bandwidth).
func TestTreeAlgorithmLatencyAdvantage(t *testing.T) {
	timed := func(algo Algorithm, size units.Bytes) (endNS int64) {
		eng := sim.NewEngine()
		fab := interconnect.New(eng, topology.DGX1())
		devs := make([]topology.NodeID, 8)
		for i := range devs {
			devs[i] = topology.NodeID(i)
		}
		rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), profiler.New())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Algorithm = algo
		comm, err := New(rt, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return int64(comm.AllReduce(profiler.StageWU, size, 0))
	}
	small := 16 * units.KB
	if ring, tree := timed(AlgoRing, small), timed(AlgoTree, small); tree >= ring {
		t.Errorf("tree (%d) should beat ring (%d) for small messages", tree, ring)
	}
	big := 256 * units.MB
	ring, tree := timed(AlgoRing, big), timed(AlgoTree, big)
	diff := float64(tree-ring) / float64(ring)
	if diff > 0.01 || diff < -0.01 {
		t.Errorf("large-message tree (%d) should ~tie ring (%d)", tree, ring)
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgoRing.String() != "ring" || AlgoTree.String() != "tree" {
		t.Error("algorithm names wrong")
	}
}

// TestTreeStepsBuiltOnce pins the tree latency term now that the
// communicator builds its tree once: for every rank count and for both
// tree-pinned and auto-selected collectives, wireTime matches the formula
// evaluated with a freshly built tree, as it was when each collective
// rebuilt the tree itself.
func TestTreeStepsBuiltOnce(t *testing.T) {
	sizes := []units.Bytes{4 * units.KB, 48 * units.KB, units.MB, 8 * units.MB, 64 * units.MB}
	for n := 2; n <= 8; n++ {
		devs := make([]topology.NodeID, n)
		for i := range devs {
			devs[i] = topology.NodeID(i)
		}
		tr, err := BuildTree(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{Algorithm: AlgoTree}, {Protocol: ProtoAuto}} {
			c := newCommOn(t, topology.DGX1(), devs, cfg)
			for _, size := range sizes {
				factor, steps := 2*float64(n-1)/float64(n), 2*(n-1)
				algo, proto := c.resolve(size)
				if algo == AlgoTree {
					steps = 2 * (tr.Depth + 1)
				}
				bw := units.Bandwidth(float64(c.BusBW()) * proto.bwFraction())
				want := units.TransferTime(units.Bytes(float64(size)*factor), bw) +
					time.Duration(steps)*proto.stepLatency(c.cfg.StepLatency)
				if got := c.wireTime(size, factor, 2*(n-1)); got != want {
					t.Errorf("n=%d algo=%v proto=%v size=%v: wireTime %v, want %v", n, cfg.Algorithm, cfg.Protocol, size, got, want)
				}
			}
		}
	}
}
