package train

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/topology"
)

func runOnDevices(t *testing.T, devs []topology.NodeID, model string, batch int, method kvstore.Method) *Result {
	t.Helper()
	cfg := quickCfg(t, model, len(devs), batch, method)
	cfg.Devices = devs
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

func TestDevicePinningValidation(t *testing.T) {
	cfg := quickCfg(t, "lenet", 2, 16, kvstore.MethodP2P)
	cfg.Devices = []topology.NodeID{0, 1, 2}
	if _, err := New(cfg); err == nil {
		t.Error("count mismatch should error")
	}
	cfg.Devices = []topology.NodeID{0, 0}
	if _, err := New(cfg); err == nil {
		t.Error("duplicate device should error")
	}
	cfg.Devices = []topology.NodeID{8, 9}
	if _, err := New(cfg); err == nil {
		t.Error("CPU nodes should error")
	}
}

// Placement matters on the asymmetric DGX-1: a well-connected pair (0-1,
// dual NVLink) must train a communication-heavy model faster than a pair
// with no direct link at all (1-2, PCIe-routed).
func TestPlacementSensitivity(t *testing.T) {
	good := runOnDevices(t, []topology.NodeID{0, 1}, "alexnet", 16, kvstore.MethodP2P)
	top := topology.DGX1()
	if top.DirectLink(1, 2, topology.NVLink) != nil {
		t.Fatal("test assumes 1-2 has no direct NVLink")
	}
	bad := runOnDevices(t, []topology.NodeID{1, 2}, "alexnet", 16, kvstore.MethodP2P)
	if float64(bad.EpochTime) < 1.03*float64(good.EpochTime) {
		t.Errorf("poorly-placed pair (%v) should train visibly slower than 0-1 (%v)",
			bad.EpochTime, good.EpochTime)
	}
}

// A cross-socket quad without its own NVLink ring must fall back and lose
// against the standard quad under NCCL.
func TestPlacementQuadRingMatters(t *testing.T) {
	std := runOnDevices(t, []topology.NodeID{0, 1, 2, 3}, "alexnet", 16, kvstore.MethodNCCL)
	// {0,3,4,7}: 0-3 single, 4-7 single, 3-7 single, 0-4? none; rings may
	// exist (0-3-7-4? needs 4-0: none) — the builder decides; either way
	// the standard quad should not lose.
	alt := runOnDevices(t, []topology.NodeID{0, 3, 4, 7}, "alexnet", 16, kvstore.MethodNCCL)
	if float64(alt.EpochTime) < 0.95*float64(std.EpochTime) {
		t.Errorf("scattered quad (%v) should not beat the standard quad (%v)",
			alt.EpochTime, std.EpochTime)
	}
}

// The paper: "some of the GPUs become idle during DNN training" under
// P2P because of the GPU0 role and asymmetric links. GPU0 runs the
// aggregation kernels, so it is strictly busier than every worker: the
// spread between the busiest and least busy GPU is positive.
func TestGPU0BusiestUnderP2P(t *testing.T) {
	four := runQuick(t, "resnet", 4, 16, kvstore.MethodP2P)
	for d, f := range four.GPUComputeBusy {
		if d != 0 && f >= four.GPUComputeBusy[0] {
			t.Errorf("GPU0 should be the busiest: %v", four.GPUComputeBusy)
		}
	}
	if len(four.GPUComputeBusy) != 4 {
		t.Errorf("busy map size = %d", len(four.GPUComputeBusy))
	}
}
