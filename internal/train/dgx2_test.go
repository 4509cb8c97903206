package train

import (
	"testing"

	"repro/internal/nccl"
	"repro/internal/topology"
	"repro/internal/units"
)

func runDGX2(t *testing.T, model string, gpus, batch int, method Method) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, method)
	cfg.Topology = topology.DGX2()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDGX2TopologyUniform(t *testing.T) {
	top := topology.DGX2()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(top.GPUs()); got != 16 {
		t.Fatalf("GPUs = %d, want 16", got)
	}
	// Every pair routes through the switch, cut-through, at 150 GB/s.
	m, err := top.BandwidthMatrix(topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m {
			if i == j {
				continue
			}
			if m[i][j] != 150*units.GBPerSec {
				t.Fatalf("pair %d-%d bandwidth %v, want uniform 150GB/s", i, j, m[i][j])
			}
		}
	}
	p, err := top.Route(0, 15, topology.RouteStagedNVLink)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CutThrough {
		t.Error("switch path should be cut-through")
	}
}

// The NVSwitch removes the P2P method's staging and asymmetry penalties:
// AlexNet's P2P training at 8 GPUs must improve dramatically over the
// DGX-1, and P2P pulls within a modest factor of NCCL.
func TestDGX2FixesP2PStaging(t *testing.T) {
	dgx1 := runQuick(t, "alexnet", 8, 16, MethodP2P)
	dgx2 := runDGX2(t, "alexnet", 8, 16, MethodP2P)
	if float64(dgx2.EpochTime) > 0.5*float64(dgx1.EpochTime) {
		t.Errorf("DGX-2 P2P (%v) should be far faster than DGX-1 P2P (%v)", dgx2.EpochTime, dgx1.EpochTime)
	}
}

// 16-GPU training works and continues to scale for compute-bound nets.
func TestDGX2SixteenGPUs(t *testing.T) {
	eight := runDGX2(t, "resnet", 8, 16, MethodNCCL)
	sixteen := runDGX2(t, "resnet", 16, 16, MethodNCCL)
	if float64(sixteen.EpochTime) > 0.65*float64(eight.EpochTime) {
		t.Errorf("16 GPUs (%v) should be well under 8 GPUs (%v)", sixteen.EpochTime, eight.EpochTime)
	}
	// Requesting more GPUs than the machine has must error.
	cfg := quickCfg(t, "resnet", 8, 16, MethodNCCL)
	cfg.Topology = topology.DGX2()
	cfg.GPUs = 17
	if _, err := New(cfg); err == nil {
		t.Error("17 GPUs on a 16-GPU machine should error")
	}
}

// 16-rank NCCL training on the switch fabric works end to end.
func TestDGX2NCCLWorks(t *testing.T) {
	res := runDGX2(t, "googlenet", 16, 16, MethodNCCL)
	if res.EpochTime <= 0 {
		t.Fatal("no result")
	}
}

// NCCL on the DGX-2 builds a switch ring at the full 150 GB/s per-GPU
// bandwidth rather than the PCIe fallback.
func TestDGX2NCCLSwitchRing(t *testing.T) {
	top := topology.DGX2()
	r, ok := nccl.SwitchRing(top, top.GPUs())
	if !ok {
		t.Fatal("no switch ring on the DGX-2")
	}
	if r.PCIe {
		t.Error("switch ring mislabeled as PCIe")
	}
	if r.LaneBW != 150*units.GBPerSec {
		t.Errorf("switch ring bandwidth %v, want 150GB/s", r.LaneBW)
	}
	// End-to-end: DGX-2 NCCL beats DGX-1 NCCL for the comm-heavy AlexNet.
	dgx1 := runQuick(t, "alexnet", 8, 16, MethodNCCL)
	dgx2 := runDGX2(t, "alexnet", 8, 16, MethodNCCL)
	if dgx2.EpochTime >= dgx1.EpochTime {
		t.Errorf("DGX-2 NCCL (%v) should beat DGX-1 NCCL (%v)", dgx2.EpochTime, dgx1.EpochTime)
	}
}
