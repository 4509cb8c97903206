package repro

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/train"
)

// Cross-layer consistency: the Figure 3 experiment's rendered cells must
// equal what a direct core.Run of the same configuration measures (the
// experiment layer adds only formatting and error bars).
func TestExperimentMatchesDirectRun(t *testing.T) {
	tabs, err := experiments.Fig3(experiments.Options{Repetitions: 1, Seed: 1, JitterRel: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// First table: LeNet with p2p; row 0 = batch 16; column 3 = 4 GPUs.
	cell := tabs[0].Rows()[0][3]
	mean := strings.TrimSpace(strings.Split(cell, "±")[0])
	parsed, err := time.ParseDuration(mean)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	direct, err := core.Run(core.Workload{Model: "lenet", GPUs: 4, Batch: 16, Method: core.P2P})
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(parsed.Seconds() - direct.EpochTime.Seconds())
	if diff/direct.EpochTime.Seconds() > 0.01 {
		t.Errorf("experiment cell %v vs direct run %v", parsed, direct.EpochTime)
	}
}

// End-to-end sanity across every workload/method pair at one configuration
// each — the smoke test a release would gate on.
func TestEndToEndSmoke(t *testing.T) {
	for _, model := range core.Models() {
		for _, method := range []core.Method{core.P2P, core.NCCL, train.MethodLocal} {
			r, err := core.Run(core.Workload{Model: model, GPUs: 2, Batch: 16, Method: method})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, method, err)
			}
			if r.EpochTime <= 0 || r.Throughput <= 0 {
				t.Fatalf("%s/%s: degenerate result", model, method)
			}
		}
	}
}
