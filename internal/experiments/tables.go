package experiments

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/train"
	"repro/internal/units"
)

// Table1 reproduces Table I: the structure and weight counts of the five
// networks, derived from the model zoo's layer graphs.
func Table1(opt Options) ([]*report.Table, error) {
	t := report.NewTable("Table I: Description of the networks",
		"Network", "Layers", "Conv Layers", "Incep Layers", "FC Layers", "Weights")
	for _, d := range models.All() {
		layers := fmt.Sprintf("%d", d.Depth)
		conv := fmt.Sprintf("%d", d.ConvLayers)
		if d.Residual {
			conv += " (residual)"
		}
		t.AddRow(d.Name, layers, conv,
			fmt.Sprintf("%d", d.InceptionModules),
			fmt.Sprintf("%d", d.FCLayers),
			fmt.Sprintf("%d", d.Params))
	}
	t.AddNote("weights derive from the layer graphs; LeNet ~61.7K, AlexNet ~61M, GoogLeNet ~7.0M, Inception-v3 ~23.8M, ResNet-50 ~25.6M")
	return []*report.Table{t}, nil
}

// Table2 reproduces Table II: the extra cost of routing single-GPU training
// through NCCL's collective kernels instead of plain P2P code paths.
func Table2(opt Options) ([]*report.Table, error) {
	opt.normalize()
	t := report.NewTable("Table II: NCCL overhead compared to P2P on a single GPU",
		"Network", "Batch Size", "P2P epoch", "NCCL epoch", "NCCL Overhead (%)")
	type cfg struct {
		model string
		batch int
	}
	type pair struct {
		p, n *train.Result
	}
	var cfgs []cfg
	for _, m := range ModelNames {
		for _, b := range Batches {
			cfgs = append(cfgs, cfg{m, b})
		}
	}
	results, err := parMap(opt, len(cfgs), func(i int) (pair, error) {
		c := cfgs[i]
		p, err := runOne(c.model, 1, c.batch, train.MethodP2P, opt.Images)
		if err != nil {
			return pair{}, err
		}
		n, err := runOne(c.model, 1, c.batch, train.MethodNCCL, opt.Images)
		if err != nil {
			return pair{}, err
		}
		return pair{p, n}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		p, n := results[i].p, results[i].n
		ov := 100 * (n.EpochTime.Seconds() - p.EpochTime.Seconds()) / p.EpochTime.Seconds()
		d, _ := models.ByName(c.model)
		t.AddRow(d.Name, fmt.Sprintf("%d", c.batch),
			fmtDur(p.EpochTime), fmtDur(n.EpochTime), report.F(ov, 1))
	}
	t.AddNote("paper anchor: LeNet batch 16 = 21.8%%; overhead grows with batch for the small networks, varies <3.6pp for the large ones")
	return []*report.Table{t}, nil
}

// Table3 reproduces Table III: cudaStreamSynchronize share for LeNet across
// batch sizes and GPU counts.
func Table3(opt Options) ([]*report.Table, error) {
	opt.normalize()
	t := report.NewTable("Table III: cudaStreamSynchronize API overhead, LeNet",
		"Batch Size", "GPU Count", "Time (%)")
	type cfg struct {
		batch, gpus int
	}
	var cfgs []cfg
	for _, b := range Batches {
		for _, g := range GPUCounts {
			cfgs = append(cfgs, cfg{b, g})
		}
	}
	results, err := parMap(opt, len(cfgs), func(i int) (*train.Result, error) {
		return runOne("lenet", cfgs[i].gpus, cfgs[i].batch, train.MethodNCCL, opt.Images)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		t.AddRow(fmt.Sprintf("%d", c.batch), fmt.Sprintf("%d", c.gpus), report.F(results[i].SyncPercent, 1))
	}
	t.AddNote("share of per-GPU wall time blocked in cudaStreamSynchronize; grows with GPU count, shrinks with batch size")
	return []*report.Table{t}, nil
}

// Table4 reproduces Table IV: per-GPU memory during pre-training and
// training with 4 GPUs (NCCL), including GPU 0's aggregation premium and
// growth relative to batch 16.
func Table4(opt Options) ([]*report.Table, error) {
	t := report.NewTable("Table IV: memory usage (4 GPUs, NCCL-based communication)",
		"Network", "Batch", "Pre-training GPUz", "Training GPU0", "Training GPUx",
		"Additional GPU0 vs GPUx (%)", "Increase vs batch 16 (%)")
	for _, m := range ModelNames {
		d, err := models.ByName(m)
		if err != nil {
			return nil, err
		}
		base := memmodel.Compute(d.Net, Batches[0], true)
		for _, b := range Batches {
			e := memmodel.Compute(d.Net, b, true)
			inc := 100 * (float64(e.Root())/float64(base.Root()) - 1)
			t.AddRow(d.Name, fmt.Sprintf("%d", b),
				fmt.Sprintf("%.2f", e.PreTraining.GiB()),
				fmt.Sprintf("%.2f", e.Root().GiB()),
				fmt.Sprintf("%.2f", e.Worker().GiB()),
				report.F(e.RootPremiumPercent(), 1),
				report.F(inc, 1))
		}
	}
	t.AddNote("values in GiB; paper anchors: AlexNet b64 GPU0 ~2.37GB, Inception-v3 b64 GPU0 ~11GB")

	oom := report.NewTable("Trainability boundary on 16GB V100s (paper §V-D)",
		"Network", "Max per-GPU batch (of 16..256)")
	cands := []int{16, 32, 64, 128, 256}
	for _, m := range ModelNames {
		d, _ := models.ByName(m)
		mb := memmodel.MaxBatch(d.Net, true, 16*units.GB, cands)
		oom.AddRow(d.Name, fmt.Sprintf("%d", mb))
	}
	oom.AddNote("paper: Inception-v3 and ResNet cannot train beyond 64, GoogLeNet beyond 128")
	return []*report.Table{t, oom}, nil
}
