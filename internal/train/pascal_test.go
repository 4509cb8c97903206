package train

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/topology"
)

// The Pascal DGX-1 (the paper's related-work comparison system): P100 GPUs
// on 20 GB/s NVLink 1.0 with 4 ports each.
func runPascal(t *testing.T, model string, gpus int, batch int, method Method) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, method)
	cfg.Topology = topology.DGX1Pascal()
	cfg.TensorCores = false // the P100 has none
	spec := gpu.P100()
	cfg.GPUSpec = &spec
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

func TestPascalTopologyValid(t *testing.T) {
	top := topology.DGX1Pascal()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 NVLink ports per P100.
	for _, g := range top.GPUs() {
		ports := 0
		for _, l := range top.Links() {
			if l.Type == topology.NVLink && (l.A == g || l.B == g) {
				ports += l.Lanes
			}
		}
		if ports != 4 {
			t.Errorf("GPU%d uses %d NVLink ports, want 4", g, ports)
		}
	}
}

// Volta must beat Pascal on every workload: more FLOPs, more bandwidth,
// more links. The margin should be largest for compute-bound networks
// (the V100's arithmetic advantage) — the generational comparison the
// paper's related work (Gawande et al.) frames.
func TestVoltaBeatsPascal(t *testing.T) {
	for _, model := range []string{"lenet", "resnet"} {
		volta := runQuick(t, model, 8, 16, MethodNCCL)
		pascal := runPascal(t, model, 8, 16, MethodNCCL)
		if pascal.EpochTime <= volta.EpochTime {
			t.Errorf("%s: Pascal (%v) should be slower than Volta (%v)", model, pascal.EpochTime, volta.EpochTime)
		}
	}
	voltaR := runQuick(t, "resnet", 1, 16, MethodP2P)
	pascalR := runPascal(t, "resnet", 1, 16, MethodP2P)
	gain := pascalR.EpochTime.Seconds() / voltaR.EpochTime.Seconds()
	// The V100 brings ~1.5x FP32 arithmetic, 1.25x memory bandwidth, and
	// tensor cores on top; period reports put the end-to-end training gain
	// around 1.5x (FP32) to ~3x (tensor cores).
	if gain < 1.4 || gain > 3.5 {
		t.Errorf("ResNet Volta-over-Pascal = %.2fx, want the 1.5-3x band", gain)
	}
}

// Pascal still trains everything the paper's Volta system trains at the
// measured batch sizes (same 16 GB capacity).
func TestPascalTrainsPaperConfigs(t *testing.T) {
	r := runPascal(t, "inception-v3", 4, 64, MethodNCCL)
	if r.EpochTime <= 0 {
		t.Fatal("no result")
	}
}
