// Command dgxsim simulates one epoch of data-parallel DNN training on the
// modeled Volta DGX-1 and prints the paper-style measurements: epoch time,
// FP+BP/WU breakdown, memory usage, and the nvprof-style profile summary.
//
// Usage:
//
//	dgxsim -model resnet -gpus 4 -batch 32 -method nccl
//	dgxsim -model inception-v3 -gpus 8 -batch 16 -method p2p -weak
//	dgxsim -model lenet -gpus 4 -batch 16 -compare
//	dgxsim -model resnet -gpus 16 -batch 32 -hardware dgx2 -protocol auto
//	dgxsim -model resnet -gpus 8 -batch 32 -faults '{"failedLinks":[{"a":0,"b":1}]}'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/faults"
)

func main() {
	var (
		model      = flag.String("model", "googlenet", "model name: "+strings.Join(core.Models(), ", "))
		gpus       = flag.Int("gpus", 4, "GPU count (1..the machine's capacity)")
		batch      = flag.Int("batch", 16, "per-GPU batch size")
		method     = flag.String("method", "nccl", "communication method: p2p, nccl or local")
		hardware   = flag.String("hardware", "", "machine generation: "+strings.Join(core.HardwareNames(), ", ")+" (default dgx1)")
		protocol   = flag.String("protocol", "", "NCCL transfer protocol: "+strings.Join(core.Protocols(), ", ")+" (default simple)")
		images     = flag.Int64("images", 0, "images per epoch (0 = paper's 256K)")
		weak       = flag.Bool("weak", false, "weak scaling: dataset grows with GPU count")
		compare    = flag.Bool("compare", false, "run both methods and compare")
		noTC       = flag.Bool("no-tensor-cores", false, "disable tensor-core lowering")
		async      = flag.Bool("async", false, "asynchronous SGD (p2p only)")
		mp         = flag.Bool("model-parallel", false, "partition layers across GPUs instead of replicating")
		micro      = flag.Int("micro-batches", 0, "model-parallel pipeline depth (0 = 2x stages, capped at batch/4, at least 1)")
		faultsJSON = flag.String("faults", "", `fault plan as JSON, e.g. '{"failedLinks":[{"a":0,"b":1}],"stragglers":[{"gpu":3,"slowdown":1.5}]}'`)
		profile    = flag.Bool("profile", false, "print the nvprof-style profile summary")
		layers     = flag.Int("layers", 0, "print the N most expensive layers (0 = off)")
		asJSON     = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()

	w := core.Workload{
		Model:              *model,
		GPUs:               *gpus,
		Batch:              *batch,
		Method:             core.Method(*method),
		Images:             *images,
		Hardware:           *hardware,
		Protocol:           *protocol,
		WeakScaling:        *weak,
		DisableTensorCores: *noTC,
		Async:              *async,
		ModelParallel:      *mp,
		MicroBatches:       *micro,
	}
	if *faultsJSON != "" {
		// Strict decode, mirroring the service's schema discipline: an
		// unknown or misspelled field is an error, not a silently healthy
		// fabric.
		dec := json.NewDecoder(strings.NewReader(*faultsJSON))
		dec.DisallowUnknownFields()
		var p faults.Plan
		if err := dec.Decode(&p); err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		w.Faults = &p
	}
	// The service (cmd/dgxsimd) runs the same check, so the CLI and the
	// API reject a bad configuration with identical error text.
	if err := w.Validate(); err != nil {
		fatal(err)
	}
	if w.Faults != nil && !*asJSON {
		fmt.Printf("fault plan: %s\n", w.Faults.Normalize())
	}

	if *compare {
		reps, err := core.Compare(w)
		if err != nil {
			fatal(err)
		}
		var p, n *core.Report
		for _, mr := range reps {
			switch mr.Method {
			case core.P2P:
				p = mr.Report
			case core.NCCL:
				n = mr.Report
			}
		}
		fmt.Println(p.Summary())
		fmt.Println(n.Summary())
		ratio := p.EpochTime.Seconds() / n.EpochTime.Seconds()
		switch {
		case ratio > 1.005:
			fmt.Printf("NCCL is %.2fx faster than P2P for this configuration\n", ratio)
		case ratio < 0.995:
			fmt.Printf("P2P is %.2fx faster than NCCL for this configuration\n", 1/ratio)
		default:
			fmt.Println("the two methods are equivalent for this configuration")
		}
		return
	}

	r, err := core.Run(w)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(r.Summary())
	e := r.Memory
	fmt.Printf("memory: pre-training %.2f GiB; training GPU0 %.2f GiB, GPUx %.2f GiB (+%.1f%% on GPU0)\n",
		e.PreTraining.GiB(), e.Root().GiB(), e.Worker().GiB(), e.RootPremiumPercent())
	if *profile {
		fmt.Println()
		fmt.Print(r.Profile.Summary())
	}
	if *layers > 0 {
		stats, err := core.LayerProfile(*model, *batch)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop %d layers by FP+BP time (per mini-batch):\n", *layers)
		fmt.Print(dnn.FormatLayerTable(dnn.TopLayers(stats, *layers)))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgxsim:", err)
	os.Exit(1)
}
