package train

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/nccl"
	"repro/internal/topology"
)

// Failure injection: removing NVLink bricks must degrade performance
// gracefully, never break training.

func TestDegradedRingEdgeLosesOneRing(t *testing.T) {
	// An earlier version of this test hid both assertions under a
	// conditional that never held, so it passed vacuously. The real
	// invariants: removing the 0-1 brick can only shrink the ring set,
	// and whatever rings survive must never route over the failed edge.
	full := nccl.BuildRings(topology.DGX1(), gpus8())
	if len(full) == 0 {
		t.Fatal("healthy DGX-1 must yield at least one 8-GPU NVLink ring")
	}
	degraded := nccl.BuildRings(topology.DGX1Faulted(topology.DGX1FaultSpec{FailedNVLinks: [][2]topology.NodeID{{0, 1}}}), gpus8())
	if len(degraded) > len(full) {
		t.Errorf("removing a link grew the ring set: %d rings vs %d healthy",
			len(degraded), len(full))
	}
	for _, r := range degraded {
		for i := range r.Order {
			a, b := r.Order[i], r.Order[(i+1)%len(r.Order)]
			if (a == 0 && b == 1) || (a == 1 && b == 0) {
				t.Fatalf("degraded ring %v uses the failed link 0-1", r.Order)
			}
		}
	}
}

func TestFaultPlanWUStrictlyIncreases(t *testing.T) {
	// The acceptance bar for fault plans: taking NVLink bricks away from
	// GPU0 (0-1 and 0-2 leaves it only two single lanes) must strictly
	// increase the exposed weight-update time of an 8-GPU NCCL run —
	// fewer/narrower rings, slower all-reduce.
	run := func(plan *faults.Plan) *Result {
		t.Helper()
		cfg, err := NewConfig("alexnet", 8, 16, MethodNCCL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Images = 4096
		cfg.Faults = plan
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
	healthy := run(nil)
	faulted := run(&faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}, {A: 0, B: 2}}})
	if faulted.WUWall <= healthy.WUWall {
		t.Errorf("removing bricks 0-1 and 0-2 must strictly increase WU: faulted %v vs healthy %v",
			faulted.WUWall, healthy.WUWall)
	}
	if faulted.EpochTime <= healthy.EpochTime {
		t.Errorf("removing bricks 0-1 and 0-2 must strictly increase epoch time: %v vs %v",
			faulted.EpochTime, healthy.EpochTime)
	}
}

func TestFaultPlanStragglerSlowsEpoch(t *testing.T) {
	run := func(plan *faults.Plan) *Result {
		t.Helper()
		cfg, err := NewConfig("lenet", 4, 16, MethodNCCL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Images = 4096
		cfg.Faults = plan
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
	healthy := run(nil)
	slowed := run(&faults.Plan{Stragglers: []faults.Straggler{{GPU: 2, Slowdown: 2}}})
	if slowed.EpochTime <= healthy.EpochTime {
		t.Errorf("a 2x straggler must slow the epoch: %v vs %v",
			slowed.EpochTime, healthy.EpochTime)
	}
}

func TestFaultPlanRejectsExplicitTopology(t *testing.T) {
	cfg, err := NewConfig("lenet", 2, 16, MethodNCCL)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topology.DGX1()
	cfg.Faults = &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}}
	if _, err := New(cfg); err == nil {
		t.Fatal("Config with both Topology and Faults must be rejected")
	}
}

func gpus8() []topology.NodeID {
	out := make([]topology.NodeID, 8)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func TestTrainingSurvivesSingleLinkFailure(t *testing.T) {
	healthy := runOnTopology(t, topology.DGX1(), "googlenet", 8, 16, MethodNCCL)
	degraded := runOnTopology(t, topology.DGX1Faulted(topology.DGX1FaultSpec{FailedNVLinks: [][2]topology.NodeID{{0, 1}}}),
		"googlenet", 8, 16, MethodNCCL)
	if degraded.EpochTime < healthy.EpochTime {
		t.Errorf("losing a link should not speed training: %v vs %v",
			degraded.EpochTime, healthy.EpochTime)
	}
	// Graceful: within 3x of healthy, not a collapse to PCIe-only misery
	// unless rings truly vanish.
	if float64(degraded.EpochTime) > 3*float64(healthy.EpochTime) {
		t.Errorf("single link failure caused %v vs %v", degraded.EpochTime, healthy.EpochTime)
	}
}

func TestTrainingSurvivesSevereDegradation(t *testing.T) {
	// Remove every link incident to GPU0's quad neighbors except PCIe:
	// training must still complete via staged/PCIe routes.
	top := topology.DGX1Faulted(topology.DGX1FaultSpec{FailedNVLinks: [][2]topology.NodeID{
		{0, 1}, {0, 2}, {0, 3}, {0, 6},
	}})
	if err := top.Validate(); err != nil {
		t.Fatalf("degraded topology invalid: %v", err)
	}
	res := runOnTopology(t, top, "lenet", 8, 16, MethodP2P)
	if res.EpochTime <= 0 {
		t.Fatal("training failed on degraded machine")
	}
}

func TestDegradedIsolatedGPUFallsToPCIeRing(t *testing.T) {
	// GPU0 loses all NVLink: NCCL cannot build an 8-GPU NVLink ring and
	// must fall back to the PCIe ring.
	top := topology.DGX1Faulted(topology.DGX1FaultSpec{FailedNVLinks: [][2]topology.NodeID{
		{0, 1}, {0, 2}, {0, 3}, {0, 6},
	}})
	rings := nccl.BuildRings(top, gpus8())
	if len(rings) != 0 {
		t.Fatalf("no NVLink ring should exist through isolated GPU0, got %v", rings)
	}
	pcie, err := nccl.PCIeRing(top, gpus8())
	if err != nil {
		t.Fatal(err)
	}
	if !pcie.PCIe || len(pcie.Order) != 8 {
		t.Errorf("bad PCIe fallback ring: %v", pcie)
	}
	// And training with NCCL still works on it.
	res := runOnTopology(t, top, "lenet", 8, 16, MethodNCCL)
	if res.EpochTime <= 0 {
		t.Fatal("NCCL training failed on PCIe fallback")
	}
}
