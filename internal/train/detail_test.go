package train

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/profiler"
)

// TestProfileDetailDoesNotChangeSimulation runs every schedule × model ×
// machine × GPU count × fault plan × {checkpointing off, on} twice: once
// with a detailed profile, which launches kernel by kernel and books
// every collective rank by rank to keep every interval, and once with an
// aggregate profile, which books each kernel run in closed form
// (cuda.Stream.LaunchRun) and each collective as one gang
// (cuda.Gang.Launch). The results and every profile aggregate must be
// identical. A configuration that is rejected must be rejected with the
// same error both ways (fault plans describe the DGX-1, so any other
// machine × a plan always is).
//
// The collective schedules (sync NCCL and hybrid) run on every
// registered machine at 2, 4 and 8 GPUs, and the failed-link plan makes
// the DGX-1 fall back to degraded rings, so the gang is checked on every
// fabric it books: NVLink rings, switch-relayed hops and PCIe rings.
func TestProfileDetailDoesNotChangeSimulation(t *testing.T) {
	schedules := []struct {
		name        string
		method      Method
		apply       func(*Config)
		collectives bool
	}{
		{"sync", MethodNCCL, func(*Config) {}, true},
		{"sync-p2p", MethodP2P, func(*Config) {}, false},
		{"async", MethodP2P, func(c *Config) { c.Async = true }, false},
		{"model-parallel", MethodNCCL, func(c *Config) { c.Parallelism = ModelParallel }, false},
		{"hybrid", MethodNCCL, func(c *Config) { c.Parallelism = HybridOWT }, true},
	}
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"healthy", nil},
		{"straggler", &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Slowdown: 1.7}}}},
		{"link-0-1-down", &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}}},
	}
	for _, sch := range schedules {
		machines, gpuCounts := []string{"dgx1", "dgx2"}, []int{4}
		if sch.collectives {
			machines, gpuCounts = MachineNames(), []int{2, 4, 8}
		}
		for _, model := range models.Names() {
			for _, hw := range machines {
				for _, gpus := range gpuCounts {
					for _, p := range plans {
						for _, ckpt := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/gpus=%d/%s/ckpt=%t", sch.name, model, hw, gpus, p.name, ckpt)
							cfg := quickCfg(t, model, gpus, 16, sch.method)
							cfg.Hardware = hw
							cfg.Faults = p.plan
							cfg.Checkpointing = ckpt
							sch.apply(&cfg)
							t.Run(name, func(t *testing.T) { checkDetailInvariant(t, cfg) })
						}
					}
				}
			}
		}
	}
}

// checkDetailInvariant runs cfg with an aggregate and a detailed profile
// and requires identical outcomes.
func checkDetailInvariant(t *testing.T, cfg Config) {
	t.Helper()
	run := func(detail int) (*Result, error) {
		c := cfg
		c.DetailIntervals = detail
		tr, err := New(c)
		if err != nil {
			return nil, err
		}
		return tr.Run()
	}
	agg, errAgg := run(0)
	det, errDet := run(1 << 14)
	if errAgg != nil || errDet != nil {
		if fmt.Sprint(errAgg) != fmt.Sprint(errDet) {
			t.Fatalf("aggregate error %v, detailed error %v", errAgg, errDet)
		}
		return
	}
	if !det.Profile.Detailed() || len(det.Profile.Intervals()) == 0 {
		t.Fatal("detailed run retained no intervals")
	}
	if agg.Profile.Detailed() {
		t.Fatal("aggregate run has a detailed profile")
	}

	// Everything but the profile and the detail setting itself.
	a, d := *agg, *det
	a.Profile, d.Profile = nil, nil
	a.Config.DetailIntervals, d.Config.DetailIntervals = 0, 0
	if !reflect.DeepEqual(a, d) {
		t.Errorf("results differ:\naggregate %+v\ndetailed  %+v", a, d)
	}

	pa, pd := agg.Profile, det.Profile
	lists := []struct {
		kind  string
		names func(*profiler.Profile) []string
		stat  func(*profiler.Profile, string) profiler.Stat
	}{
		{"API", (*profiler.Profile).APINames, (*profiler.Profile).API},
		{"kernel", (*profiler.Profile).KernelNames, (*profiler.Profile).Kernel},
		{"transfer", (*profiler.Profile).TransferNames, (*profiler.Profile).Transfer},
	}
	for _, l := range lists {
		na, nd := l.names(pa), l.names(pd)
		if !reflect.DeepEqual(na, nd) {
			t.Errorf("%s names differ:\naggregate %v\ndetailed  %v", l.kind, na, nd)
			continue
		}
		for _, n := range na {
			if sa, sd := l.stat(pa, n), l.stat(pd, n); sa != sd {
				t.Errorf("%s %s: aggregate %+v, detailed %+v", l.kind, n, sa, sd)
			}
		}
	}
}

// cutRuns ends a run at every parameter step, folds parameterless steps
// into the next run, gives a kernel-less parameter step an empty run of
// its own and closes with the trailing parameterless steps.
func TestCutRuns(t *testing.T) {
	a, b, c := &dnn.WeightedLayer{Name: "a"}, &dnn.WeightedLayer{Name: "b"}, &dnn.WeightedLayer{Name: "c"}
	steps := []struct {
		kernels int
		layer   *dnn.WeightedLayer
	}{
		{2, nil}, {3, a}, // run [0,5) ends at a
		{1, nil}, {0, b}, // [5,6) without parameters, then b's empty run
		{4, c},             // [6,10) ends at c
		{1, nil}, {2, nil}, // trailing [10,13)
	}
	got := cutRuns(len(steps), func(i int) (int, *dnn.WeightedLayer) { return steps[i].kernels, steps[i].layer })
	want := []runCut{{5, a}, {6, nil}, {6, b}, {10, c}, {13, nil}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cuts = %v, want %v", got, want)
	}
	if got := cutRuns(0, nil); len(got) != 0 {
		t.Errorf("no steps cut into %v", got)
	}
}
