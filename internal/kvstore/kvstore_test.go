package kvstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

func newBackend(t *testing.T, method Method, n int) Backend {
	t.Helper()
	fab := interconnect.New(topology.DGX1())
	devs := make([]topology.NodeID, n)
	for i := range devs {
		devs[i] = topology.NodeID(i)
	}
	rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), profiler.New())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(method, rt, devs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// priced returns an array of size bytes per device, priced by b.
func priced(b Backend, size units.Bytes) *Array {
	a := &Array{Size: size}
	b.Price(a)
	return a
}

func TestBothMethodsWork(t *testing.T) {
	for _, m := range []Method{MethodP2P, MethodNCCL} {
		b := newBackend(t, m, 4)
		if b.Name() != m {
			t.Errorf("name = %v, want %v", b.Name(), m)
		}
		if b.Root() != 0 {
			t.Errorf("%v root = %d, want 0", m, b.Root())
		}
		push, err := b.PushGradient(profiler.StageWU, priced(b, 10*units.MB), 0)
		if err != nil || push <= 0 {
			t.Errorf("%v push = %v, %v", m, push, err)
		}
		pull, err := b.PullWeights(profiler.StageWU, priced(b, 10*units.MB), push)
		if err != nil || pull <= push {
			t.Errorf("%v pull = %v, %v", m, pull, err)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	rt, err := cuda.NewRuntime(fab, gpu.V100(), []topology.NodeID{0}, cuda.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("mpi", rt, []topology.NodeID{0}); err == nil {
		t.Error("unknown method should error")
	}
}

func TestSetupCosts(t *testing.T) {
	p := newBackend(t, MethodP2P, 2)
	if p.SetupCost() != 0 {
		t.Errorf("P2P setup = %v, want 0", p.SetupCost())
	}
	n := newBackend(t, MethodNCCL, 2)
	if n.SetupCost() <= 0 {
		t.Error("NCCL setup should cost time (the overhead Table II measures)")
	}
}

// Single-GPU: P2P push/pull are free, NCCL still pays for its kernels —
// the mechanism behind the paper's Table II.
func TestSingleGPUNCCLOverheadExists(t *testing.T) {
	p := newBackend(t, MethodP2P, 1)
	endP, err := p.PushGradient(profiler.StageWU, priced(p, 100*units.MB), time.Millisecond)
	if err != nil || endP != time.Millisecond {
		t.Errorf("1-GPU P2P push = %v, %v; want free", endP, err)
	}
	n := newBackend(t, MethodNCCL, 1)
	endN, err := n.PushGradient(profiler.StageWU, priced(n, 100*units.MB), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if endN <= time.Millisecond {
		t.Error("1-GPU NCCL push should still cost time")
	}
}

func TestRingsAccessor(t *testing.T) {
	n := newBackend(t, MethodNCCL, 4)
	if len(Rings(n)) == 0 {
		t.Error("NCCL backend should expose rings")
	}
	p := newBackend(t, MethodP2P, 4)
	if Rings(p) != nil {
		t.Error("P2P backend has no rings")
	}
}

// For large models at 8 GPUs NCCL's pipelined rings beat the P2P tree —
// the paper's headline crossover.
func TestNCCLBeatsP2PForLargeTransfersAt8GPUs(t *testing.T) {
	p := newBackend(t, MethodP2P, 8)
	n := newBackend(t, MethodNCCL, 8)
	size := 100 * units.MB // AlexNet-scale model
	pushP, err := p.PushGradient(profiler.StageWU, priced(p, size), 0)
	if err != nil {
		t.Fatal(err)
	}
	pullP, err := p.PullWeights(profiler.StageWU, priced(p, size), pushP)
	if err != nil {
		t.Fatal(err)
	}
	pushN, err := n.PushGradient(profiler.StageWU, priced(n, size), 0)
	if err != nil {
		t.Fatal(err)
	}
	pullN, err := n.PullWeights(profiler.StageWU, priced(n, size), pushN)
	if err != nil {
		t.Fatal(err)
	}
	if pullN >= pullP {
		t.Errorf("NCCL round (%v) should beat P2P round (%v) at 8 GPUs", pullN, pullP)
	}
}

// For tiny transfers the P2P tree's lower fixed cost wins — why LeNet
// prefers P2P in the paper.
func TestP2PBeatsNCCLForTinyTransfers(t *testing.T) {
	p := newBackend(t, MethodP2P, 2)
	n := newBackend(t, MethodNCCL, 2)
	size := 16 * units.KB // LeNet-scale arrays
	pushP, _ := p.PushGradient(profiler.StageWU, priced(p, size), 0)
	pullP, _ := p.PullWeights(profiler.StageWU, priced(p, size), pushP)
	pushN, _ := n.PushGradient(profiler.StageWU, priced(n, size), 0)
	pullN, _ := n.PullWeights(profiler.StageWU, priced(n, size), pushN)
	if pullP >= pullN {
		t.Errorf("P2P round (%v) should beat NCCL round (%v) for tiny arrays", pullP, pullN)
	}
}

// MXNet's default "local" kvstore (CPU parameter server over PCIe) must be
// the slowest of the three for multi-GPU AlexNet-scale exchanges — the
// reason the paper's methods exist.
func TestLocalKVStoreIsTheBaselineToBeat(t *testing.T) {
	size := 100 * units.MB
	round := func(m Method) time.Duration {
		b := newBackend(t, m, 4)
		push, err := b.PushGradient(profiler.StageWU, priced(b, size), 0)
		if err != nil {
			t.Fatal(err)
		}
		pull, err := b.PullWeights(profiler.StageWU, priced(b, size), push)
		if err != nil {
			t.Fatal(err)
		}
		return pull
	}
	local := round(MethodLocal)
	p2p := round(MethodP2P)
	nc := round(MethodNCCL)
	if local <= p2p || local <= nc {
		t.Errorf("local (%v) should be slower than p2p (%v) and nccl (%v)", local, p2p, nc)
	}
}

func TestLocalKVStoreBasics(t *testing.T) {
	b := newBackend(t, MethodLocal, 2)
	if b.Name() != MethodLocal || b.Root() != 0 || b.SetupCost() != 0 {
		t.Error("local backend metadata wrong")
	}
	push, err := b.PushGradient(profiler.StageWU, priced(b, units.MB), 0)
	if err != nil || push <= 0 {
		t.Fatalf("push: %v, %v", push, err)
	}
	pull, err := b.PullWeights(profiler.StageWU, priced(b, units.MB), push)
	if err != nil || pull <= push {
		t.Fatalf("pull: %v, %v", pull, err)
	}
}

// TestEmptyDevicesRejected: every method must refuse an empty device
// slice with the typed error, up front — the nccl path used to index
// devs[0] for its root before any engine could object.
func TestEmptyDevicesRejected(t *testing.T) {
	fab := interconnect.New(topology.DGX1())
	rt, err := cuda.NewRuntime(fab, gpu.V100(), []topology.NodeID{0}, cuda.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodP2P, MethodNCCL, MethodLocal, Method("bogus")} {
		for _, devs := range [][]topology.NodeID{nil, {}} {
			b, err := New(m, rt, devs)
			if b != nil || !errors.Is(err, ErrNoDevices) {
				t.Errorf("New(%v, %v) = %v, %v; want nil, ErrNoDevices", m, devs, b, err)
			}
		}
	}
}
