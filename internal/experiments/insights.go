package experiments

import (
	"fmt"
	"time"

	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/train"
	"repro/internal/units"
)

// Insights programmatically evaluates the qualitative claims the paper
// states in its evaluation sections — a conformance suite over the
// simulation. Each row names the claim, the measured evidence, and whether
// it holds.
func Insights(opt Options) ([]*report.Table, error) {
	opt.normalize()
	t := report.NewTable("Paper insights, checked against the simulation",
		"#", "Claim (paper section)", "Measured evidence", "Holds")

	type check struct {
		claim string
		run   func() (string, bool, error)
	}

	epoch := func(model string, gpus, batch int, m train.Method) (time.Duration, error) {
		r, err := runOne(model, gpus, batch, m, opt.Images)
		if err != nil {
			return 0, err
		}
		return r.EpochTime, nil
	}

	checks := []check{
		{
			claim: "Increasing batch size reduces epoch time; ~linearly for LeNet (V-A)",
			run: func() (string, bool, error) {
				l16, err := epoch("lenet", 4, 16, train.MethodP2P)
				if err != nil {
					return "", false, err
				}
				l64, err := epoch("lenet", 4, 64, train.MethodP2P)
				if err != nil {
					return "", false, err
				}
				g16, err := epoch("googlenet", 4, 16, train.MethodNCCL)
				if err != nil {
					return "", false, err
				}
				g64, err := epoch("googlenet", 4, 64, train.MethodNCCL)
				if err != nil {
					return "", false, err
				}
				lf, gf := l16.Seconds()/l64.Seconds(), g16.Seconds()/g64.Seconds()
				// The paper claims linear for all workloads; compute-bound
				// physics gives only a modest gain for the big nets — see
				// EXPERIMENTS.md. LeNet's near-linear factor (paper: 3.67x)
				// and a monotone decrease elsewhere is what we check.
				return fmt.Sprintf("LeNet 16->64: %.2fx (paper 3.67x); GoogLeNet: %.2fx", lf, gf),
					lf > 3 && gf > 1.02, nil
			},
		},
		{
			claim: "P2P outperforms NCCL for LeNet at every GPU count (V-A)",
			run: func() (string, bool, error) {
				ok := true
				worst := 0.0
				for _, g := range []int{1, 2, 4, 8} {
					p, err := epoch("lenet", g, 16, train.MethodP2P)
					if err != nil {
						return "", false, err
					}
					n, err := epoch("lenet", g, 16, train.MethodNCCL)
					if err != nil {
						return "", false, err
					}
					r := n.Seconds() / p.Seconds()
					if r < 1 {
						ok = false
					}
					if worst == 0 || r < worst {
						worst = r
					}
				}
				return fmt.Sprintf("NCCL/P2P ratio >= %.2f at all counts", worst), ok, nil
			},
		},
		{
			claim: "NCCL beats P2P for compute-intensive nets at 4 and 8 GPUs (V-A)",
			run: func() (string, bool, error) {
				p4, err := epoch("inception-v3", 4, 16, train.MethodP2P)
				if err != nil {
					return "", false, err
				}
				n4, err := epoch("inception-v3", 4, 16, train.MethodNCCL)
				if err != nil {
					return "", false, err
				}
				p8, err := epoch("inception-v3", 8, 16, train.MethodP2P)
				if err != nil {
					return "", false, err
				}
				n8, err := epoch("inception-v3", 8, 16, train.MethodNCCL)
				if err != nil {
					return "", false, err
				}
				s4, s8 := p4.Seconds()/n4.Seconds(), p8.Seconds()/n8.Seconds()
				return fmt.Sprintf("Inception-v3: %.2fx at 4 GPUs, %.2fx at 8", s4, s8),
					s4 > 1.05 && s8 > s4, nil
			},
		},
		{
			claim: "NCCL overhead cannot be amortized for small nets on one GPU (V-B)",
			run: func() (string, bool, error) {
				p, err := epoch("lenet", 1, 16, train.MethodP2P)
				if err != nil {
					return "", false, err
				}
				n, err := epoch("lenet", 1, 16, train.MethodNCCL)
				if err != nil {
					return "", false, err
				}
				ov := 100 * (n.Seconds() - p.Seconds()) / p.Seconds()
				return fmt.Sprintf("LeNet b16: %.1f%% (paper: 21.8%%)", ov), ov > 10 && ov < 35, nil
			},
		},
		{
			claim: "Computation (FP+BP) dominates training as GPUs increase (V-C)",
			run: func() (string, bool, error) {
				r, err := runOne("resnet", 8, 16, train.MethodNCCL, opt.Images)
				if err != nil {
					return "", false, err
				}
				share := 100 * float64(r.FPBPWall()) / float64(r.EpochTime)
				return fmt.Sprintf("ResNet 8 GPUs: FP+BP = %.1f%% of epoch", share), share > 80, nil
			},
		},
		{
			claim: "cudaStreamSynchronize dominates LeNet's API time (V-C)",
			run: func() (string, bool, error) {
				r, err := runOne("lenet", 4, 16, train.MethodNCCL, opt.Images)
				if err != nil {
					return "", false, err
				}
				names := r.Profile.APINames()
				top := ""
				if len(names) > 0 {
					top = names[0]
				}
				return fmt.Sprintf("top API: %s", top), top == "cudaStreamSynchronize", nil
			},
		},
		{
			claim: "GPU memory limits the maximum batch size (V-D)",
			run: func() (string, bool, error) {
				d, err := models.ByName("inception-v3")
				if err != nil {
					return "", false, err
				}
				mb := memmodel.MaxBatch(d.Net, true, 16*units.GB, []int{16, 32, 64, 128, 256})
				return fmt.Sprintf("Inception-v3 max per-GPU batch: %d (paper: 64)", mb), mb == 64, nil
			},
		},
		{
			claim: "Feature maps far exceed the model for the large workloads (V-D)",
			run: func() (string, bool, error) {
				d, err := models.ByName("inception-v3")
				if err != nil {
					return "", false, err
				}
				e := memmodel.Compute(d.Net, 64, true)
				ratio := float64(e.FeatureMaps) / float64(e.Weights)
				return fmt.Sprintf("Inception-v3 b64: maps/model = %.0fx", ratio), ratio > 10, nil
			},
		},
		{
			claim: "Weak scaling beats strong scaling, most for LeNet (V-E)",
			run: func() (string, bool, error) {
				strong, err := runOne("lenet", 8, 32, train.MethodP2P, opt.Images)
				if err != nil {
					return "", false, err
				}
				weak, err := runOne("lenet", 8, 32, train.MethodP2P, opt.Images*8)
				if err != nil {
					return "", false, err
				}
				adv := 100 * (1 - (weak.EpochTime.Seconds()/8)/strong.EpochTime.Seconds())
				return fmt.Sprintf("LeNet 8 GPUs b32: weak %.1f%% better per 256K", adv), adv > 0, nil
			},
		},
		{
			claim: "Raising interconnect bandwidth alone cannot remove the bottleneck (VI)",
			run: func() (string, bool, error) {
				run := func(top *topology.Topology) (*train.Result, error) {
					cfg, err := train.NewConfig("lenet", 8, 16, train.MethodNCCL)
					if err != nil {
						return nil, err
					}
					cfg.Images = opt.Images
					cfg.Topology = top
					tr, err := train.New(cfg)
					if err != nil {
						return nil, err
					}
					return tr.Run()
				}
				base, err := run(topology.DGX1())
				if err != nil {
					return "", false, err
				}
				fat, err := run(topology.DGX1Scaled(4))
				if err != nil {
					return "", false, err
				}
				cut := 100 * (1 - fat.WUWall.Seconds()/base.WUWall.Seconds())
				return fmt.Sprintf("4x NVLink removes only %.1f%% of LeNet's WU wall", cut),
					cut < 30, nil
			},
		},
	}

	checks = append(checks,
		check{
			claim: "Workloads with more weights per layer scale WU best: AlexNet ideal (V-C)",
			run: func() (string, bool, error) {
				// Per-epoch WU at 2 vs 8 GPUs: AlexNet (7.6M weights/layer
				// average) should shrink by a larger factor than LeNet
				// (12K/layer).
				wu := func(model string, g int) (float64, error) {
					r, err := runOne(model, g, 16, train.MethodNCCL, opt.Images)
					if err != nil {
						return 0, err
					}
					return r.WUWall.Seconds(), nil
				}
				a2, err := wu("alexnet", 2)
				if err != nil {
					return "", false, err
				}
				a8, err := wu("alexnet", 8)
				if err != nil {
					return "", false, err
				}
				l2, err := wu("lenet", 2)
				if err != nil {
					return "", false, err
				}
				l8, err := wu("lenet", 8)
				if err != nil {
					return "", false, err
				}
				af, lf := a2/a8, l2/l8
				return fmt.Sprintf("WU shrink 2->8 GPUs: AlexNet %.1fx, LeNet %.1fx", af, lf),
					af > lf, nil
			},
		},
		check{
			claim: "GPU0 is the multi-GPU bottleneck under P2P (V-A, IV-D)",
			run: func() (string, bool, error) {
				r, err := runOne("resnet", 4, 16, train.MethodP2P, opt.Images)
				if err != nil {
					return "", false, err
				}
				g0 := r.GPUComputeBusy[0]
				busiest := true
				for d, f := range r.GPUComputeBusy {
					if d != 0 && f > g0 {
						busiest = false
					}
				}
				return fmt.Sprintf("GPU0 compute busy %.0f%%, workers less", 100*g0), busiest, nil
			},
		},
		check{
			claim: "NCCL overhead amortizes via pipelining with enough transfers (V-B)",
			run: func() (string, bool, error) {
				// The per-layer exchange count is what NCCL amortizes over:
				// Inception-v3 (189 arrays) keeps its 1-GPU overhead far
				// below LeNet's (10 arrays) in relative terms.
				ov := func(model string) (float64, error) {
					p, err := epoch(model, 1, 16, train.MethodP2P)
					if err != nil {
						return 0, err
					}
					n, err := epoch(model, 1, 16, train.MethodNCCL)
					if err != nil {
						return 0, err
					}
					return 100 * (n.Seconds() - p.Seconds()) / p.Seconds(), nil
				}
				le, err := ov("lenet")
				if err != nil {
					return "", false, err
				}
				inc, err := ov("inception-v3")
				if err != nil {
					return "", false, err
				}
				return fmt.Sprintf("1-GPU overhead: LeNet %.1f%%, Inception-v3 %.1f%%", le, inc),
					inc < le/3, nil
			},
		},
	)

	for i, c := range checks {
		evidence, ok, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("insight %d: %w", i+1, err)
		}
		verdict := "yes"
		if !ok {
			verdict = "NO"
		}
		t.AddRow(fmt.Sprintf("%d", i+1), c.claim, evidence, verdict)
	}
	return []*report.Table{t}, nil
}
