package train

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/nccl"
	"repro/internal/topology"
)

// Every registered machine must build a valid topology whose GPU count
// matches its declared capacity, and resolve a GPU spec.
func TestMachineRegistry(t *testing.T) {
	ms := Machines()
	if len(ms) != 5 {
		t.Fatalf("registry has %d machines, want 5: %v", len(ms), MachineNames())
	}
	for _, m := range ms {
		top := m.Build()
		if err := top.Validate(); err != nil {
			t.Errorf("%s: topology invalid: %v", m.Name, err)
		}
		if got := len(top.GPUs()); got != m.GPUs {
			t.Errorf("%s: topology has %d GPUs, registry declares %d", m.Name, got, m.GPUs)
		}
		if m.Spec().Name == "" {
			t.Errorf("%s: GPU spec has no name", m.Name)
		}
	}
	if m, err := MachineByName(""); err != nil || m.Name != DefaultHardware {
		t.Errorf("MachineByName(\"\") = (%v, %v), want the default DGX-1", m.Name, err)
	}
	if _, err := MachineByName("dgx-3000"); err == nil {
		t.Error("unknown machine accepted")
	}
}

// Trainers on a registered machine share its memoized topology, each
// with its own fabric; fault plans and explicit topologies get their own
// graphs; ResetCache makes the next trainer rebuild the graph.
func TestMachineTopologyShared(t *testing.T) {
	trainer := func(hw string, plan *faults.Plan, top *topology.Topology) *Trainer {
		t.Helper()
		cfg := quickCfg(t, "lenet", 2, 16, MethodNCCL)
		cfg.Hardware, cfg.Faults, cfg.Topology = hw, plan, top
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, name := range MachineNames() {
		shared, err := MachineTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := trainer(name, nil, nil), trainer(name, nil, nil)
		if a.fab.Topology() != shared || b.fab.Topology() != shared {
			t.Errorf("%s: trainers do not share the memoized topology", name)
		}
		if a.fab == b.fab {
			t.Errorf("%s: trainers share a fabric", name)
		}
	}
	if def, _ := MachineTopology(""); trainer("", nil, nil).fab.Topology() != def {
		t.Error("the default hardware does not use the memoized DGX-1")
	}
	dgx1, _ := MachineTopology(DefaultHardware)
	failed := &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}}
	if trainer("", failed, nil).fab.Topology() == dgx1 {
		t.Error("a fault plan reused the healthy DGX-1 graph")
	}
	own := topology.DGX1()
	if trainer("", nil, own).fab.Topology() != own {
		t.Error("an explicit topology was replaced")
	}
	if _, err := MachineTopology("dgx-3000"); err == nil {
		t.Error("unknown machine accepted")
	}

	ResetCache()
	if trainer("", nil, nil).fab.Topology() == dgx1 {
		t.Error("ResetCache kept the memoized topology")
	}
	if again, _ := MachineTopology(""); again == dgx1 {
		t.Error("ResetCache kept the memoized topology")
	}
}

// The hardware axis admits the DGX-2's 16 GPUs and rejects 17 with an
// error naming the machine — the capacity check must consult the
// resolved machine, not the DGX-1 constant.
func TestHardwareCapacityBounds(t *testing.T) {
	cfg := quickCfg(t, "resnet", 16, 16, MethodNCCL)
	cfg.Hardware = "dgx2"
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("16 GPUs on the DGX-2: %v", err)
	}
	if res, err := tr.Run(); err != nil || res.EpochTime <= 0 {
		t.Fatalf("16-GPU DGX-2 run: %v", err)
	}

	cfg = quickCfg(t, "resnet", 8, 16, MethodNCCL)
	cfg.Hardware = "dgx2"
	cfg.GPUs = 17
	_, err = New(cfg)
	if err == nil {
		t.Fatal("17 GPUs on a 16-GPU machine accepted")
	}
	if !strings.Contains(err.Error(), "the DGX-2 has 16 GPUs") {
		t.Errorf("error %q should name the DGX-2's capacity", err)
	}
}

// An explicit Topology override is validated against its own GPU node
// count (the check used to be skipped entirely when Topology was set).
func TestTopologyOverrideCapacityBounds(t *testing.T) {
	cfg := quickCfg(t, "resnet", 8, 16, MethodNCCL)
	cfg.Topology = topology.DGX2()
	cfg.GPUs = 17
	_, err := New(cfg)
	if err == nil {
		t.Fatal("17 GPUs on a 16-GPU topology accepted")
	}
	if !strings.Contains(err.Error(), "topology has 16 GPUs, requested 17") {
		t.Errorf("error %q should cite the topology's GPU count", err)
	}
}

// Hardware and an explicit Topology are two spellings of the same
// override and must not be combined.
func TestHardwareTopologyMutuallyExclusive(t *testing.T) {
	cfg := quickCfg(t, "lenet", 4, 16, MethodNCCL)
	cfg.Hardware = "dgx2"
	cfg.Topology = topology.DGX1()
	if _, err := New(cfg); err == nil {
		t.Error("hardware + explicit topology accepted")
	}
}

// Fault plans describe the DGX-1's wiring: combining one with another
// machine must fail with the typed sentinel the API's invalid_argument
// envelope keys on.
func TestFaultsRequireDGX1Hardware(t *testing.T) {
	cfg := quickCfg(t, "lenet", 4, 16, MethodNCCL)
	cfg.Hardware = "dgx2"
	cfg.Faults = &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}}
	_, err := New(cfg)
	if err == nil {
		t.Fatal("fault plan on non-DGX-1 hardware accepted")
	}
	if !errors.Is(err, faults.ErrHardwareMismatch) {
		t.Errorf("error %q should wrap faults.ErrHardwareMismatch", err)
	}

	// The same plan on explicit dgx1 (and on the default) stays legal.
	cfg.Hardware = "dgx1"
	if _, err := New(cfg); err != nil {
		t.Errorf("fault plan on explicit dgx1: %v", err)
	}
}

// The protocol axis changes simulated time: LL's halved bandwidth makes
// the comm-bound AlexNet epoch slower than Simple's.
func TestProtocolChangesEpochTime(t *testing.T) {
	run := func(protocol nccl.Protocol) *Result {
		t.Helper()
		cfg := quickCfg(t, "alexnet", 8, 16, MethodNCCL)
		cfg.NCCL.Protocol = protocol
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
	simple := run(nccl.ProtoSimple)
	ll := run(nccl.ProtoLL)
	if ll.EpochTime <= simple.EpochTime {
		t.Errorf("LL epoch (%v) should exceed Simple's (%v) for bulk gradients", ll.EpochTime, simple.EpochTime)
	}
}
