package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/train"
)

// The experiment's headline claim, pinned: for every model it sweeps,
// the P2P-vs-NCCL gap is narrower on the DGX-2's uniform NVSwitch
// crossbar than on the DGX-1's asymmetric cube-mesh. Measured on the
// exact workloads the experiment renders (8 GPUs, batch 16).
func TestCrossoverGapNarrowsOnDGX2(t *testing.T) {
	epoch := func(model, hw string, method train.Method) float64 {
		t.Helper()
		res, err := core.Simulate(core.Workload{
			Model: model, GPUs: 8, Batch: 16, Method: method, Images: 16384, Hardware: hw,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.EpochTime.Seconds()
	}
	for _, model := range crossoverModels {
		gap := func(hw string) float64 {
			return math.Abs(math.Log(epoch(model, hw, train.MethodNCCL) / epoch(model, hw, train.MethodP2P)))
		}
		dgx1, dgx2 := gap("dgx1"), gap("dgx2")
		if dgx2 >= dgx1 {
			t.Errorf("%s: |log NCCL/P2P| on dgx2 (%.3f) should be below dgx1's (%.3f)", model, dgx2, dgx1)
		}
	}
}

// The experiment renders both tables with fully populated rows.
func TestCrossoverRenders(t *testing.T) {
	tables, err := Crossover(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("crossover rendered %d tables, want 2", len(tables))
	}
	out := tables[0].String()
	for _, want := range []string{"alexnet", "resnet", "dgx1", "dgx2"} {
		if !strings.Contains(out, want) {
			t.Errorf("method table missing %q:\n%s", want, out)
		}
	}
	proto := tables[1].String()
	for _, want := range []string{"simple", "ll", "ll128", "auto"} {
		if !strings.Contains(proto, want) {
			t.Errorf("protocol table missing %q:\n%s", want, proto)
		}
	}
}
