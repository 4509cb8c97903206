package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/train"
)

// crossoverModels are the networks whose P2P-vs-NCCL gap the paper's
// Figure 3 exhibits most clearly: AlexNet (communication-bound, big
// dense layers) and ResNet (compute-bound).
var crossoverModels = []string{"alexnet", "resnet"}

// crossoverHardware are the machine generations the comparison spans.
var crossoverHardware = []string{"dgx1", "dgx2"}

// Crossover re-runs the paper's P2P-vs-NCCL comparison across hardware
// generations. On the DGX-1's asymmetric hybrid cube-mesh the two
// methods price communication very differently — P2P serializes root
// transfers over the tree while NCCL's rings use every link — so the
// gap between them is wide; on the DGX-2's NVSwitch full crossbar every
// GPU pair is one uniform hop and both methods see the same fat pipes,
// so the gap narrows. Everything is driven through core.Workload's
// hardware axis — the same path the API serves — so the rendered rows
// are exactly what /v1/simulate would report.
func Crossover(opt Options) ([]*report.Table, error) {
	opt.normalize()

	run := func(model, hardware string, method train.Method, protocol string) (time.Duration, error) {
		res, err := core.Simulate(core.Workload{
			Model: model, GPUs: 8, Batch: 16, Method: method,
			Images: opt.Images, Hardware: hardware, Protocol: protocol,
		})
		if err != nil {
			return 0, err
		}
		return res.EpochTime, nil
	}

	t := report.NewTable("Crossover: P2P vs NCCL at 8 GPUs, batch 16, by hardware",
		"Model", "Hardware", "P2P", "NCCL", "NCCL/P2P")
	for _, model := range crossoverModels {
		for _, hw := range crossoverHardware {
			p2p, err := run(model, hw, train.MethodP2P, "")
			if err != nil {
				return nil, err
			}
			nccl, err := run(model, hw, train.MethodNCCL, "")
			if err != nil {
				return nil, err
			}
			t.AddRow(model, hw, fmtDur(p2p), fmtDur(nccl),
				fmt.Sprintf("%.3fx", nccl.Seconds()/p2p.Seconds()))
		}
	}
	t.AddNote("the paper's wide DGX-1 method gap comes from the asymmetric cube-mesh; the DGX-2's NVSwitch crossbar serves both methods uniformly, so the NCCL/P2P ratio moves toward 1")

	p := report.NewTable("NCCL protocols on the DGX-2: AlexNet epoch at 8 GPUs, batch 16",
		"Protocol", "Epoch", "vs simple")
	var simple time.Duration
	for _, proto := range []string{"simple", "ll", "ll128", "auto"} {
		d, err := run("alexnet", "dgx2", train.MethodNCCL, proto)
		if err != nil {
			return nil, err
		}
		if proto == "simple" {
			simple = d
		}
		p.AddRow(proto, fmtDur(d), fmt.Sprintf("%.3fx", d.Seconds()/simple.Seconds()))
	}
	p.AddNote("LL halves effective bandwidth for latency; LL128 keeps 15/16 of it on NVLink; auto picks protocol and algorithm per collective by message size")
	return []*report.Table{t, p}, nil
}
