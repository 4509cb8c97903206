package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/nccl"
	"repro/internal/train"
)

// caseName names one compile of templateCases.
func caseName(w Workload) string {
	return fmt.Sprintf("%s/%s/%dgpu/%s/%s/faults=%v", w.Hardware, w.Model, w.GPUs, w.Method, w.Protocol, w.Faults != nil)
}

// templateCases spans every registered machine × 1/2/4/8 GPUs × p2p and
// nccl under every protocol, plus the compiles that build their templates
// or tables unshared or lean on rarely used parts of them: a straggler at
// the root and off it, a failed brick, checkpointing, Winograd, a traced
// timeline and the other schedules.
func templateCases() []Workload {
	var cases []Workload
	for _, hw := range HardwareNames() {
		for _, gpus := range []int{1, 2, 4, 8} {
			w := Workload{Model: "lenet", GPUs: gpus, Batch: 24, Images: 8192, Hardware: hw}
			w.Method = P2P
			cases = append(cases, w)
			for _, proto := range nccl.ProtocolNames() {
				w.Method, w.Protocol = NCCL, proto
				cases = append(cases, w)
			}
		}
	}
	base := Workload{Model: "alexnet", GPUs: 4, Batch: 32, Images: 8192}
	with := func(edit func(*Workload)) Workload {
		w := base
		edit(&w)
		return w
	}
	straggler := func(gpu int) *faults.Plan {
		return &faults.Plan{Stragglers: []faults.Straggler{{GPU: gpu, Slowdown: 1.5}}}
	}
	brick := &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}}
	return append(cases,
		with(func(w *Workload) { w.Faults = straggler(0) }),
		with(func(w *Workload) { w.Faults = straggler(2); w.Method = P2P }),
		with(func(w *Workload) { w.Faults = brick }),
		with(func(w *Workload) { w.Faults = brick; w.Method = P2P }),
		with(func(w *Workload) { w.Checkpointing = true }),
		with(func(w *Workload) { w.Winograd = true; w.Method = P2P }),
		with(func(w *Workload) { w.TraceIntervals = 1 << 12 }),
		with(func(w *Workload) { w.TraceIntervals = 1 << 12; w.Method = P2P; w.GPUs = 2 }),
		with(func(w *Workload) { w.Method = P2P; w.Async = true }),
		with(func(w *Workload) { w.ModelParallel = true }),
		with(func(w *Workload) { w.HybridOWT = true }),
	)
}

// compileCase compiles one case outside the compiled-window memo, so every
// call is a compile of its own, and renders everything it produced: the
// report, the profile's every listing, and its Chrome trace.
func compileCase(w Workload) (string, error) {
	if err := w.Validate(); err != nil {
		return "", err
	}
	w = w.Normalize()
	cfg, err := trainConfig(w)
	if err != nil {
		return "", err
	}
	tr, err := train.New(cfg)
	if err != nil {
		return "", err
	}
	win, err := tr.SimulateWindow()
	if err != nil {
		return "", err
	}
	res, err := win.Extrapolate(cfg.Images)
	if err != nil {
		return "", err
	}
	rep, err := json.Marshal(newReport(w, res))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Write(rep)
	b.WriteString(res.Profile.Summary())
	for _, name := range res.Profile.TransferNames() {
		fmt.Fprintf(&b, "%s %+v\n", name, res.Profile.Transfer(name))
	}
	if err := res.Profile.ExportChromeTrace(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Trainers share machine templates and kernel tables across compiles.
// Distinct compiles running concurrently over one set of shared templates
// must produce, byte for byte, what each produces alone after
// ResetCaches, on templates built for it. Run under -race, this also
// checks that the templates are only read.
func TestSharedTemplatesMatchFreshBuilds(t *testing.T) {
	cases := templateCases()
	refs := make([]string, len(cases))
	for i, c := range cases {
		ResetCaches()
		ref, err := compileCase(c)
		if err != nil {
			t.Fatalf("%v: %v", caseName(c), err)
		}
		refs[i] = ref
	}

	ResetCaches()
	n := max(runtime.NumCPU(), 4)
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan string, n*rounds*len(cases))
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Stagger the order per goroutine so different compiles
				// race to build and read each template.
				for off := range cases {
					i := (g*7 + round + off) % len(cases)
					got, err := compileCase(cases[i])
					if err != nil {
						errs <- fmt.Sprintf("%v: %v", caseName(cases[i]), err)
						return
					}
					if got != refs[i] {
						errs <- fmt.Sprintf("%v: a compile over shared templates diverged from a fresh build", caseName(cases[i]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// ResetCaches drops the machine templates, plan tables and kernel tables
// with everything else, so the compile after it builds them afresh
// (BenchmarkCoreRunCold and the paper experiments measure that cost). A
// trainer built over warm templates allocates only its per-compile state,
// so a trainer that allocates far more after a reset rebuilt a template.
// Each check warms everything after the reset but the template it
// checks: a machine with the same GPU warms the plan and its tables, and
// another batch of the same model on the same machine warms the machine
// template and the plan table, which every batch shares.
func TestResetCachesDropsTemplates(t *testing.T) {
	w := Workload{Model: "alexnet", GPUs: 4, Batch: 16, Images: 8192, Method: NCCL, Hardware: "dgx1"}.Normalize()
	build := func(w Workload) {
		t.Helper()
		cfg, err := trainConfig(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := train.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(w Workload) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build(w)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	ResetCaches()
	build(w)
	warm := testing.AllocsPerRun(20, func() { build(w) })

	sameGPU := w
	sameGPU.Hardware = "dgx2" // V100s, as in the DGX-1
	otherBatch := w
	otherBatch.Batch = 32
	for _, c := range []struct {
		what string
		warm Workload
	}{
		{"the machine template", sameGPU},
		{"the kernel table", otherBatch},
	} {
		ResetCaches()
		if _, err := train.MachineTopology(w.Hardware); err != nil {
			t.Fatal(err)
		}
		build(c.warm)
		if got := allocs(w); got < 2*warm {
			t.Errorf("ResetCaches kept %s: the next trainer made %.0f allocations, a warm one %.0f", c.what, got, warm)
		} else {
			t.Logf("%s rebuilt: %.0f allocations, %.0f warm", c.what, got, warm)
		}
	}
}
