package experiments

import (
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/train"
)

// Hardware compares the Volta DGX-1 against the machines the paper's
// related work measures it against: the Pascal DGX-1 (Gawande et al.), a
// PCIe-only chassis (Tallent et al.'s axis), and hypothetical
// higher-bandwidth NVLink variants — plus MXNet's default CPU parameter
// server as the transport baseline.
func Hardware(opt Options) ([]*report.Table, error) {
	opt.normalize()

	run := func(top *topology.Topology, spec *gpu.Spec, tensor bool, method train.Method, model string, gpus int) (time.Duration, error) {
		cfg, err := train.NewConfig(model, gpus, 16, method)
		if err != nil {
			return 0, err
		}
		cfg.Images = opt.Images
		cfg.Topology = top
		cfg.GPUSpec = spec
		cfg.TensorCores = tensor
		tr, err := train.New(cfg)
		if err != nil {
			return 0, err
		}
		res, err := tr.Run()
		if err != nil {
			return 0, err
		}
		return res.EpochTime, nil
	}

	p100 := gpu.P100()
	machines := []struct {
		name   string
		top    *topology.Topology
		spec   *gpu.Spec
		tensor bool
	}{
		{"Pascal DGX-1 (P100, NVLink1)", topology.DGX1Pascal(), &p100, false},
		{"Volta DGX-1, PCIe only", topology.DGX1PCIeOnly(), nil, true},
		{"Volta DGX-1 (the paper's)", topology.DGX1(), nil, true},
		{"Volta DGX-1, 2x NVLink", topology.DGX1Scaled(2), nil, true},
		{"DGX-2 (NVSwitch, 8 of 16 GPUs)", topology.DGX2(), nil, true},
	}

	t := report.NewTable("Hardware variants: epoch time at 8 GPUs, batch 16, NCCL",
		"Machine", "LeNet", "AlexNet", "ResNet")
	for _, m := range machines {
		row := []string{m.name}
		for _, model := range []string{"lenet", "alexnet", "resnet"} {
			d, err := run(m.top, m.spec, m.tensor, train.MethodNCCL, model, 8)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(d))
		}
		t.AddRow(row...)
	}
	t.AddNote("Pascal loses on arithmetic (no tensor cores, 10.6 vs 15.7 TFLOPS) and wire (20 vs 25-50 GB/s); PCIe-only loses on wire alone; the NVSwitch generation removes the asymmetric-topology penalties the paper diagnosed")

	m2 := report.NewTable("Transport baselines: AlexNet epoch at 4 GPUs, batch 16 (Volta DGX-1)",
		"kvstore", "Epoch", "vs local")
	var local time.Duration
	for _, method := range []train.Method{train.MethodLocal, train.MethodP2P, train.MethodNCCL} {
		d, err := run(topology.DGX1(), nil, true, method, "alexnet", 4)
		if err != nil {
			return nil, err
		}
		if method == train.MethodLocal {
			local = d
		}
		m2.AddRow(string(method), fmtDur(d), fmt.Sprintf("%.2fx", local.Seconds()/d.Seconds()))
	}
	m2.AddNote("\"local\" is MXNet's default CPU parameter server over PCIe — the baseline the paper's two GPU-side methods replace")
	return []*report.Table{t, m2}, nil
}
