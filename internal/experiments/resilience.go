package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/train"
)

// resilienceScenarios are the injected degradations the sweep compares, in
// rough order of severity. Each exercises a different lowering path: failed
// bricks and degraded links flow through the topology into NCCL's ring
// search, stragglers through per-device GPU specs, and PCIe contention
// through the staging links every method shares.
func resilienceScenarios() []struct {
	name string
	plan *faults.Plan
} {
	return []struct {
		name string
		plan *faults.Plan
	}{
		{"healthy", nil},
		{"one brick down (0-1)", &faults.Plan{
			FailedLinks: []faults.Link{{A: 0, B: 1}},
		}},
		{"two bricks down (0-1, 0-2)", &faults.Plan{
			FailedLinks: []faults.Link{{A: 0, B: 1}, {A: 0, B: 2}},
		}},
		{"GPU0 NVLink-isolated", &faults.Plan{
			FailedLinks: []faults.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}, {A: 0, B: 6}},
		}},
		{"link 0-1 at 40% bandwidth", &faults.Plan{
			DegradedLinks: []faults.Degrade{{A: 0, B: 1, Fraction: 0.4}},
		}},
		{"GPU3 straggling 1.5x", &faults.Plan{
			Stragglers: []faults.Straggler{{GPU: 3, Slowdown: 1.5}},
		}},
		{"PCIe 50% contended", &faults.Plan{
			PCIeContention: 0.5,
		}},
	}
}

// Resilience sweeps fault plans over the paper's 8-GPU NCCL configuration
// and tables how training time and the communication share respond. It is
// the degraded-fabric counterpart of Figure 4: the paper shows WU share
// growing with healthy-machine GPU count; this shows it growing again as
// the fabric the collectives run on loses links, lanes, or lockstep.
func Resilience(opt Options) ([]*report.Table, error) {
	opt.normalize()

	const (
		model = "alexnet"
		gpus  = 8
		batch = 16
	)
	scenarios := resilienceScenarios()

	type row struct {
		res *train.Result
	}
	results, err := parMap(opt, len(scenarios), func(i int) (row, error) {
		res, err := core.Simulate(core.Workload{
			Model:  model,
			GPUs:   gpus,
			Batch:  batch,
			Method: train.MethodNCCL,
			Images: opt.Images,
			Faults: scenarios[i].plan,
		})
		return row{res: res}, err
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("Resilience: %s at %d GPUs, batch %d, NCCL, under injected faults", model, gpus, batch),
		"Fault plan", "Epoch", "FP+BP", "WU", "WU share (%)", "vs healthy")
	healthy := results[0].res.EpochTime
	for i, s := range scenarios {
		r := results[i].res
		t.AddRow(s.name,
			fmtDur(r.EpochTime),
			fmtDur(r.FPBPWall()),
			fmtDur(r.WUWall),
			report.F(100*float64(r.WUWall)/float64(r.EpochTime), 1),
			fmt.Sprintf("%.2fx", r.EpochTime.Seconds()/healthy.Seconds()))
	}
	t.AddNote("link faults reshape NCCL's rings (fewer edge-disjoint cycles, or a narrower bottleneck lane), so only WU grows; a straggler stretches FP+BP on every ring it anchors; PCIe contention prices the host staging the paper's timeline exposes")
	return []*report.Table{t}, nil
}
