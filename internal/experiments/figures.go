package experiments

import (
	"fmt"
	"time"

	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/train"
)

// Fig2 reproduces Figure 2: the DGX-1 topology, rendered as the node/link
// inventory, nvidia-smi-style adjacency, and the routed bandwidth matrix.
func Fig2(opt Options) ([]*report.Table, error) {
	top := topology.DGX1()
	if err := top.Validate(); err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 2: DGX-1 NVLink adjacency (NV1/NV2 = 1/2 bonded links, PIX = PCIe only)")
	t.Columns = append([]string{""}, func() []string {
		var c []string
		for _, g := range top.GPUs() {
			c = append(c, fmt.Sprintf("G%d", g))
		}
		return c
	}()...)
	for _, a := range top.GPUs() {
		row := []string{fmt.Sprintf("G%d", a)}
		for _, b := range top.GPUs() {
			switch {
			case a == b:
				row = append(row, "X")
			default:
				if l := top.DirectLink(a, b, topology.NVLink); l != nil {
					row = append(row, fmt.Sprintf("NV%d", l.Lanes))
				} else {
					row = append(row, "PIX")
				}
			}
		}
		t.AddRow(row...)
	}

	bw := report.NewTable("Routed GPU-to-GPU bottleneck bandwidth (staged NVLink policy, GB/s)")
	bw.Columns = t.Columns
	m, err := top.BandwidthMatrix(topology.RouteStagedNVLink)
	if err != nil {
		return nil, err
	}
	for i, a := range top.GPUs() {
		row := []string{fmt.Sprintf("G%d", a)}
		for j := range top.GPUs() {
			if i == j {
				row = append(row, "-")
			} else {
				row = append(row, report.F(float64(m[i][j])/float64(1<<30), 0))
			}
		}
		bw.AddRow(row...)
	}
	bw.AddNote("every pair reachable within two NVLink hops; PCIe fallback available via host CPUs")
	return []*report.Table{t, bw}, nil
}

// trackStage keys per-track, per-stage aggregation for Fig1.
type trackStage struct {
	track string
	stage profiler.Stage
}

// Fig1 reproduces Figure 1's timeline: it runs GoogLeNet on 4 GPUs with a
// detailed profile and summarizes the first iterations' activity per track
// and stage. cmd/trace exports the same run as a Chrome trace for visual
// inspection.
func Fig1(opt Options) ([]*report.Table, error) {
	opt.normalize()
	cfg, err := train.NewConfig("googlenet", 4, 16, train.MethodNCCL)
	if err != nil {
		return nil, err
	}
	cfg.Images = opt.Images
	cfg.DetailIntervals = 200000
	tr, err := train.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := tr.Run()
	if err != nil {
		return nil, err
	}
	busy := map[trackStage]time.Duration{}
	count := map[trackStage]int{}
	for _, iv := range res.Profile.Intervals() {
		k := trackStage{iv.Track, iv.Stage}
		busy[k] += iv.Duration()
		count[k]++
	}
	t := report.NewTable("Figure 1: per-track activity in the simulated window (GoogLeNet, 4 GPUs, NCCL)",
		"Track", "Stage", "Activities", "Busy time")
	for _, track := range sortedTracks(busy) {
		for _, st := range []profiler.Stage{profiler.StageFP, profiler.StageBP, profiler.StageWU, profiler.StageDataLoad, profiler.StageOther} {
			k := trackStage{track, st}
			if count[k] == 0 {
				continue
			}
			t.AddRow(track, st.String(), fmt.Sprintf("%d", count[k]), fmtDur(busy[k]))
		}
	}
	t.AddNote("steady iteration %v: FP %v, BP %v, exposed WU %v; export the full timeline with cmd/trace",
		fmtDur(res.SteadyIter),
		fmtDur(res.FPWall/time.Duration(res.Iterations)),
		fmtDur(res.BPWall/time.Duration(res.Iterations)),
		fmtDur(res.WUWall/time.Duration(res.Iterations)))
	return []*report.Table{t}, nil
}

func sortedTracks(m map[trackStage]time.Duration) []string {
	seen := map[string]bool{}
	var out []string
	for key := range m {
		if !seen[key.track] {
			seen[key.track] = true
			out = append(out, key.track)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Fig3 reproduces Figure 3: training time per epoch for the five networks,
// both methods, batch sizes 16/32/64 and 1/2/4/8 GPUs, as mean ± std over
// repetitions.
func Fig3(opt Options) ([]*report.Table, error) {
	opt.normalize()
	type cfg struct {
		model  string
		method train.Method
		batch  int
		gpus   int
	}
	var cfgs []cfg
	for _, m := range ModelNames {
		for _, method := range Methods {
			for _, b := range Batches {
				for _, g := range GPUCounts {
					cfgs = append(cfgs, cfg{m, method, b, g})
				}
			}
		}
	}
	factors := jitterFactors(opt, GPUCounts, Batches)
	cells, err := parMap(opt, len(cfgs), func(i int) (string, error) {
		c := cfgs[i]
		ms, err := measure(c.model, c.gpus, c.batch, c.method, opt.Images, factors[jitterKey{c.gpus, c.batch}])
		if err != nil {
			return "", err
		}
		return ms.sample.String(), nil
	})
	if err != nil {
		return nil, err
	}
	var out []*report.Table
	k := 0
	for _, m := range ModelNames {
		d, err := models.ByName(m)
		if err != nil {
			return nil, err
		}
		for _, method := range Methods {
			t := report.NewTable(
				fmt.Sprintf("Figure 3: %s with %s — training time per epoch (mean ± std of %d reps)",
					d.Name, method, opt.Repetitions),
				"Batch Size", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs")
			for _, b := range Batches {
				row := []string{fmt.Sprintf("%d", b)}
				for range GPUCounts {
					row = append(row, cells[k])
					k++
				}
				t.AddRow(row...)
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// Fig4 reproduces Figure 4: the decomposition of epoch time into
// computation (FP+BP) and exposed communication (WU) under NCCL.
func Fig4(opt Options) ([]*report.Table, error) {
	opt.normalize()
	type cfg struct {
		model       string
		gpus, batch int
	}
	var cfgs []cfg
	for _, m := range ModelNames {
		for _, g := range GPUCounts {
			for _, b := range Batches {
				cfgs = append(cfgs, cfg{m, g, b})
			}
		}
	}
	results, err := parMap(opt, len(cfgs), func(i int) (*train.Result, error) {
		c := cfgs[i]
		return runOne(c.model, c.gpus, c.batch, train.MethodNCCL, opt.Images)
	})
	if err != nil {
		return nil, err
	}
	var out []*report.Table
	k := 0
	for _, m := range ModelNames {
		d, err := models.ByName(m)
		if err != nil {
			return nil, err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 4: %s (NCCL) — epoch time breakdown", d.Name),
			"GPUs", "Batch", "FP+BP", "WU", "WU share (%)")
		for _, g := range GPUCounts {
			for _, b := range Batches {
				r := results[k]
				k++
				wu := fmtDur(r.WUWall)
				share := report.F(100*float64(r.WUWall)/float64(r.EpochTime), 1)
				if g == 1 {
					// The paper does not report single-GPU WU (it is ~two
					// orders below FP+BP).
					wu, share = "-", "-"
				}
				t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%d", b),
					fmtDur(r.FPBPWall()), wu, share)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig5 reproduces Figure 5: weak scaling — the dataset grows with GPU
// count (256K images per GPU) and the per-256K-image time is compared with
// strong scaling.
func Fig5(opt Options) ([]*report.Table, error) {
	opt.normalize()
	type cfg struct {
		model       string
		method      train.Method
		batch, gpus int
	}
	type pair struct {
		weak, strong *train.Result
	}
	var cfgs []cfg
	for _, m := range ModelNames {
		for _, method := range Methods {
			for _, b := range Batches {
				for _, g := range GPUCounts {
					cfgs = append(cfgs, cfg{m, method, b, g})
				}
			}
		}
	}
	results, err := parMap(opt, len(cfgs), func(i int) (pair, error) {
		c := cfgs[i]
		// Weak scaling grows the dataset with the GPU count.
		weak, err := runOne(c.model, c.gpus, c.batch, c.method, opt.Images*int64(c.gpus))
		if err != nil {
			return pair{}, err
		}
		strong, err := runOne(c.model, c.gpus, c.batch, c.method, opt.Images)
		if err != nil {
			return pair{}, err
		}
		return pair{weak, strong}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []*report.Table
	k := 0
	for _, m := range ModelNames {
		d, err := models.ByName(m)
		if err != nil {
			return nil, err
		}
		for _, method := range Methods {
			t := report.NewTable(
				fmt.Sprintf("Figure 5: %s with %s — weak scaling", d.Name, method),
				"Batch", "GPUs", "Total epoch (weak)", "Per-256K (weak)", "Per-256K (strong)", "Weak advantage (%)")
			for _, b := range Batches {
				for _, g := range GPUCounts {
					r := results[k]
					k++
					per := r.weak.EpochTime / time.Duration(g)
					adv := 100 * (1 - float64(per)/float64(r.strong.EpochTime))
					t.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%d", g),
						fmtDur(r.weak.EpochTime), fmtDur(per), fmtDur(r.strong.EpochTime),
						report.F(adv, 1))
				}
			}
			out = append(out, t)
		}
	}
	return out, nil
}
