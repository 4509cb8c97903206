package train

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/topology"
)

func runOnTopology(t *testing.T, top *topology.Topology, model string, gpus, batch int, method Method) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, method)
	cfg.Topology = top
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

// The PCIe-only machine must train large networks visibly slower at high
// GPU counts (the NVLink-vs-PCIe comparisons the paper cites).
func TestPCIeOnlyTopologySlower(t *testing.T) {
	nv := runOnTopology(t, topology.DGX1(), "alexnet", 8, 16, MethodNCCL)
	pcie := runOnTopology(t, topology.DGX1PCIeOnly(), "alexnet", 8, 16, MethodNCCL)
	if float64(pcie.EpochTime) < 1.2*float64(nv.EpochTime) {
		t.Errorf("PCIe-only (%v) should be much slower than NVLink (%v)", pcie.EpochTime, nv.EpochTime)
	}
}

// The paper's insight: raising interconnect bandwidth alone cannot remove
// the communication bottleneck (fixed per-transfer/per-kernel overheads
// remain). For LeNet, 4x NVLink bandwidth must leave the WU wall nearly
// unchanged.
func TestBandwidthAloneDoesNotFixLeNet(t *testing.T) {
	base := runOnTopology(t, topology.DGX1(), "lenet", 8, 16, MethodNCCL)
	fat := runOnTopology(t, topology.DGX1Scaled(4), "lenet", 8, 16, MethodNCCL)
	if base.WUWall <= 0 {
		t.Fatal("expected exposed WU for LeNet")
	}
	reduction := 1 - float64(fat.WUWall)/float64(base.WUWall)
	if reduction > 0.25 {
		t.Errorf("4x bandwidth removed %.0f%% of LeNet WU; latency-bound WU should barely move", 100*reduction)
	}
}

// For the bandwidth-bound AlexNet, more bandwidth genuinely helps — the
// contrast that makes the LeNet result meaningful.
func TestBandwidthHelpsAlexNet(t *testing.T) {
	base := runOnTopology(t, topology.DGX1(), "alexnet", 8, 16, MethodNCCL)
	fat := runOnTopology(t, topology.DGX1Scaled(4), "alexnet", 8, 16, MethodNCCL)
	if float64(fat.EpochTime) > 0.85*float64(base.EpochTime) {
		t.Errorf("4x bandwidth should speed AlexNet up substantially: %v vs %v", fat.EpochTime, base.EpochTime)
	}
}

func TestScaledTopologyValidates(t *testing.T) {
	for _, s := range []float64{0.5, 1, 2, 4} {
		if err := topology.DGX1Scaled(s).Validate(); err != nil {
			t.Errorf("scale %v: %v", s, err)
		}
	}
	if err := topology.DGX1PCIeOnly().Validate(); err != nil {
		t.Errorf("PCIe-only: %v", err)
	}
	// PCIe-only has no NVLink at all.
	for _, l := range topology.DGX1PCIeOnly().Links() {
		if l.Type == topology.NVLink {
			t.Fatal("PCIe-only topology has NVLink links")
		}
	}
}

func TestGPUSpecOverride(t *testing.T) {
	cfg := quickCfg(t, "resnet", 1, 16, MethodP2P)
	spec := *mustSpec()
	spec.PeakFP32 /= 2
	spec.PeakTensor /= 2
	cfg.GPUSpec = &spec
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	fast := runQuick(t, "resnet", 1, 16, MethodP2P)
	if slow.EpochTime <= fast.EpochTime {
		t.Errorf("half-rate GPU (%v) should be slower (%v)", slow.EpochTime, fast.EpochTime)
	}
}

// mustSpec returns the default device spec for override tests.
func mustSpec() *gpu.Spec {
	s := gpu.V100()
	return &s
}
