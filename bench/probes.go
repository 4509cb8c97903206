package main

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/commbench"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/train"
	"repro/internal/units"
)

// probeTrack is the trace track the layer probes record on.
const probeTrack = 99

// prober times calls into one layer's public functions, one span per call.
type prober struct{ tr *tracer }

// time runs f n times and returns each call's duration in seconds.
func (p prober) time(name string, n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		f()
		finish := time.Now()
		p.tr.record(p.tr.id(), 0, name, "probes", probeTrack, start, finish)
		out[i] = finish.Sub(start).Seconds()
	}
	return out
}

// kernelSink keeps the KernelDuration loop from being optimized away.
var kernelSink time.Duration

// probes measures every layer the workloads cross, from outside, on the
// same inputs in every workload's traced run: the layer ledger. Each value
// is the median of its calls.
func probes(tr *tracer, seed int64) (map[string]float64, error) {
	p := prober{tr}
	m := map[string]float64{}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// core: validation, fingerprinting, cold and warm runs of 32 seeded
	// sync workloads.
	in := newInputs(seed, "probes")
	var ws []core.Workload
	for k := 0; len(ws) < 32; k++ {
		if w := in.workload(k); !w.Async && !w.ModelParallel && !w.HybridOWT {
			ws = append(ws, w)
		}
	}
	var validate, fingerprint, cold, warm []float64
	for _, w := range ws {
		validate = append(validate, p.time("probe.core.Validate", 1, func() { fail(w.Validate()) })...)
		fingerprint = append(fingerprint, p.time("probe.core.Fingerprint", 1, func() { w.Fingerprint() })...)
		core.ResetCaches()
		cold = append(cold, p.time("probe.core.Run.cold", 1, func() { _, err := core.Run(w); fail(err) })...)
		warm = append(warm, p.time("probe.core.Run.warm", 4, func() { _, err := core.Run(w); fail(err) })...)
	}
	m["core.validate_us"] = 1e6 * median(validate)
	m["core.fingerprint_us"] = 1e6 * median(fingerprint)
	m["core.run_cold_ms"] = 1e3 * median(cold)
	m["core.run_warm_us"] = 1e6 * median(warm)

	// models and dnn: build the zoo, then lower fresh plans.
	m["models.zoo_build_ms"] = 1e3 * median(p.time("probe.models.zoo", 8, func() {
		models.ResetCache()
		for _, name := range spaceModels {
			_, err := models.ByName(name)
			fail(err)
		}
	}))
	opt := dnn.PlanOptions{TensorCores: true}
	var plan []float64
	kernels := 0
	models.ResetCache()
	for _, name := range spaceModels {
		d, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, b := range []int{16, 32, 48, 63} {
			plan = append(plan, p.time("probe.dnn.plan", 1, func() {
				kernels += len(d.Net.ForwardPlan(b, opt))
				for _, st := range d.Net.BackwardPlan(b, opt) {
					kernels += len(st.Kernels)
				}
			})...)
		}
	}
	m["dnn.plan_us"] = 1e6 * median(plan)
	m["dnn.kernels_per_plan"] = float64(kernels) / float64(len(plan))

	// gpu: the roofline duration of every kernel of a lowered plan.
	d, err := models.ByName("resnet")
	if err != nil {
		return nil, err
	}
	ks := append([]gpu.KernelCost(nil), d.Net.ForwardPlan(32, opt)...)
	for _, st := range d.Net.BackwardPlan(32, opt) {
		ks = append(ks, st.Kernels...)
	}
	spec := gpu.V100()
	m["gpu.kernel_duration_ns"] = 1e9 * median(p.time("probe.gpu.KernelDuration", 32, func() {
		for _, k := range ks {
			kernelSink += spec.KernelDuration(k)
		}
	})) / float64(len(ks))

	// train: construct, simulate the steady-state window, extrapolate it,
	// and run the schedules that have no window in full.
	cfg, err := train.NewConfig("resnet", 8, 32, core.NCCL)
	if err != nil {
		return nil, err
	}
	m["train.new_ms"] = 1e3 * median(p.time("probe.train.New", 8, func() { _, err := train.New(cfg); fail(err) }))
	var win *train.Window
	var window []float64
	for i := 0; i < 8; i++ {
		trn, err := train.New(cfg)
		if err != nil {
			return nil, err
		}
		window = append(window, p.time("probe.train.SimulateWindow", 1, func() { win, err = trn.SimulateWindow(); fail(err) })...)
	}
	m["train.window_ms"] = 1e3 * median(window)
	var res *train.Result
	m["train.extrapolate_us"] = 1e6 * median(p.time("probe.train.Extrapolate", 64, func() {
		res, err = win.Extrapolate(cfg.Images)
		fail(err)
	}))
	if res != nil {
		var kc, ac int64
		for _, n := range res.Profile.KernelNames() {
			kc += res.Profile.Kernel(n).Calls
		}
		for _, n := range res.Profile.APINames() {
			ac += res.Profile.API(n).Calls
		}
		m["profiler.kernels_per_iter"] = float64(kc) / float64(res.Iterations)
		m["profiler.api_calls_per_iter"] = float64(ac) / float64(res.Iterations)
	}
	var full []float64
	for _, variant := range []func(*train.Config){
		func(c *train.Config) { c.Method, c.Async = core.P2P, true },
		func(c *train.Config) { c.Parallelism = train.ModelParallel },
		func(c *train.Config) { c.Parallelism = train.HybridOWT },
	} {
		c := cfg
		variant(&c)
		for i := 0; i < 3; i++ {
			trn, err := train.New(c)
			if err != nil {
				return nil, err
			}
			full = append(full, p.time("probe.train.Run", 1, func() { _, err := trn.Run(); fail(err) })...)
		}
	}
	m["train.full_run_ms"] = 1e3 * median(full)

	// nccl: one 64 MiB all-reduce across 8 GPUs on an idle machine.
	m["nccl.allreduce_host_us"] = 1e6 * median(p.time("probe.nccl.AllReduce", 16, func() {
		_, err := commbench.Measure(commbench.AllReduce, core.NCCL, 8, 64*units.MB)
		fail(err)
	}))

	// cluster: a seeded 150-job PAI-style mix over four nodes.
	const jobs = 150
	spec4 := cluster.Spec{Nodes: []cluster.NodeSpec{{Count: 4}}, Mix: &cluster.Mix{Jobs: jobs}, Seed: seed}
	m["cluster.us_per_job"] = 1e6 * median(p.time("probe.cluster.Simulate", 3, func() {
		_, err := cluster.Simulate(context.Background(), spec4)
		fail(err)
	})) / jobs
	return m, firstErr
}
