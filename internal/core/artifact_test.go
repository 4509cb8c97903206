package core

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/train"
)

// reportJSON marshals a report the way every consumer sees it.
func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColdWarmByteIdentical is the artifact layer's core guarantee: for
// every zoo model, a run served from the compiled-window cache is
// byte-identical to a cold run of the same workload.
func TestColdWarmByteIdentical(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			w := Workload{Model: model, GPUs: 2, Batch: 16, Images: 8192}
			ResetCaches()
			cold, err := Run(w)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Run(w)
			if err != nil {
				t.Fatal(err)
			}
			cj, wj := reportJSON(t, cold), reportJSON(t, warm)
			if string(cj) != string(wj) {
				t.Errorf("warm report differs from cold:\ncold: %s\nwarm: %s", cj, wj)
			}
		})
	}

	// Model parallelism consumes one mini-batch per iteration, not one
	// per GPU: on 8 GPUs at batch 16 these epochs simulate 1, 2, 4 and 4
	// window iterations. Each warm run follows the others' compiles, so
	// a key that counted iterations the data-parallel way would hand it
	// a window simulated for another epoch size.
	t.Run("model-parallel-images", func(t *testing.T) {
		sizes := []int64{16, 32, 64, 128}
		mp := func(images int64) Workload {
			return Workload{Model: "alexnet", GPUs: 8, Batch: 16, ModelParallel: true, Images: images}
		}
		cold := make([][]byte, len(sizes))
		for i, images := range sizes {
			ResetCaches()
			r, err := Run(mp(images))
			if err != nil {
				t.Fatal(err)
			}
			cold[i] = reportJSON(t, r)
		}
		ResetCaches()
		for _, images := range sizes {
			if _, err := Run(mp(images)); err != nil {
				t.Fatal(err)
			}
		}
		for i, images := range sizes {
			warm, err := Run(mp(images))
			if err != nil {
				t.Fatal(err)
			}
			if wj := reportJSON(t, warm); string(wj) != string(cold[i]) {
				t.Errorf("images=%d: warm report differs from cold:\ncold: %s\nwarm: %s", images, cold[i], wj)
			}
		}
	})
}

// TestWindowSharedAcrossImages pins the subtler half of the guarantee:
// two workloads differing only in dataset size share one compiled window
// (the window depends on Images only through the simulated iteration
// count), and the shared-window run is still byte-identical to its own
// cold run.
func TestWindowSharedAcrossImages(t *testing.T) {
	small := Workload{Model: "alexnet", GPUs: 4, Batch: 32, Images: 64 * 1024}
	large := Workload{Model: "alexnet", GPUs: 4, Batch: 32, Images: 256 * 1024}

	ResetCaches()
	coldLarge, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	coldLargeJSON := reportJSON(t, coldLarge)

	// Fresh caches, opposite order: compile via the small epoch, then
	// serve the large epoch from the small epoch's window.
	ResetCaches()
	if _, err := Run(small); err != nil {
		t.Fatal(err)
	}
	if kS, kL := artifactKey(small.Normalize()), artifactKey(large.Normalize()); kS != kL {
		t.Fatalf("images-only variants should share an artifact key: %q vs %q", kS, kL)
	}
	warmLarge, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, warmLarge); string(got) != string(coldLargeJSON) {
		t.Errorf("large epoch served from the small epoch's window differs from its cold run:\ncold: %s\nwarm: %s",
			coldLargeJSON, got)
	}
}

// TestTinyEpochGetsOwnWindow guards the key's iteration suffix: an epoch
// smaller than the simulated window compiles its own artifact instead of
// borrowing (and mis-extrapolating) a full-size one.
func TestTinyEpochGetsOwnWindow(t *testing.T) {
	full := Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 8192}
	tiny := Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 32} // 1 iteration
	if kF, kT := artifactKey(full.Normalize()), artifactKey(tiny.Normalize()); kF == kT {
		t.Fatalf("full and tiny epochs must not share artifact key %q", kF)
	}
	ResetCaches()
	coldTiny, err := Run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	coldTinyJSON := reportJSON(t, coldTiny)

	ResetCaches()
	if _, err := Run(full); err != nil {
		t.Fatal(err)
	}
	warmTiny, err := Run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, warmTiny); string(got) != string(coldTinyJSON) {
		t.Errorf("tiny epoch after full epoch differs from its cold run:\ncold: %s\ngot: %s", coldTinyJSON, got)
	}
}

// TestCacheConcurrency hammers the artifact cache from NumCPU goroutines
// starting cold, so the compile-once gate, the plan cache, the model zoo
// memo and the machine-topology memo all race on first touch, and
// distinct workloads compile on every registered machine's one shared
// topology at once. Run with -race; every result must match the bytes of
// a sequential run on a freshly built topology.
func TestCacheConcurrency(t *testing.T) {
	workloads := []Workload{
		{Model: "lenet", GPUs: 2, Batch: 16, Images: 8192},
		{Model: "alexnet", GPUs: 4, Batch: 32, Images: 8192},
		{Model: "resnet", GPUs: 2, Batch: 16, Images: 8192},
		{Model: "resnet", GPUs: 2, Batch: 16, Images: 16384}, // shares resnet's window
	}
	for _, hw := range HardwareNames() {
		for _, gpus := range []int{1, 2, 8} {
			for _, m := range []Method{NCCL, P2P} {
				workloads = append(workloads, Workload{Model: "lenet", GPUs: gpus, Batch: 24, Images: 8192, Method: m, Hardware: hw})
			}
		}
	}
	refs := make([]string, len(workloads))
	for i, w := range workloads {
		ResetCaches()
		r, err := Run(w)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = string(reportJSON(t, r))
	}

	ResetCaches()
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, n*rounds*len(workloads))
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Stagger the order per goroutine so different keys race.
				for off := 0; off < len(workloads); off++ {
					i := (g + round + off) % len(workloads)
					r, err := Run(workloads[i])
					if err != nil {
						errs <- err.Error()
						return
					}
					b, err := json.Marshal(r)
					if err != nil {
						errs <- err.Error()
						return
					}
					if string(b) != refs[i] {
						errs <- "concurrent report diverged from sequential reference for " + workloads[i].Model
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

// TestCompileCountEqualsDistinctPlans is the mega-sweep acceptance
// invariant: a grid whose cells differ only in extrapolation-phase
// parameters (dataset size, hence iteration count) compiles exactly one
// train.Window per distinct compile-phase plan, no matter how many cells
// ride on it.
func TestCompileCountEqualsDistinctPlans(t *testing.T) {
	var grid []Workload
	// 5 distinct compile plans (lenet, alexnet, and alexnet under each
	// non-sync schedule) x 8 Images variations: 40 cells, every epoch
	// large enough to simulate the full default window, so all Images
	// variants share their plan's window.
	plans := []Workload{
		{Model: "lenet", GPUs: 2, Batch: 16},
		{Model: "alexnet", GPUs: 2, Batch: 16},
		{Model: "alexnet", GPUs: 2, Batch: 16, Method: P2P, Async: true},
		{Model: "alexnet", GPUs: 2, Batch: 16, ModelParallel: true},
		{Model: "alexnet", GPUs: 2, Batch: 16, Method: NCCL, HybridOWT: true},
	}
	for _, plan := range plans {
		for i := 0; i < 8; i++ {
			w := plan
			w.Images = int64(8192 * (i + 1))
			grid = append(grid, w)
		}
	}
	distinct := make(map[string]bool)
	for _, w := range grid {
		distinct[w.Normalize().CompileFingerprint()] = true
	}
	if len(distinct) != len(plans) {
		t.Fatalf("grid has %d distinct compile fingerprints, want %d", len(distinct), len(plans))
	}

	ResetCaches()
	before := CompileCount()
	for _, w := range grid {
		if _, err := RunContext(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	if got := CompileCount() - before; got != uint64(len(distinct)) {
		t.Errorf("grid of %d cells compiled %d windows, want %d (one per distinct plan)",
			len(grid), got, len(distinct))
	}
}

// TestCompileFingerprintSplit pins which fields are extrapolation-only:
// Images and WeakScaling must not perturb the compile fingerprint, while
// compile-phase fields (batch, GPUs, method, faults...) must.
func TestCompileFingerprintSplit(t *testing.T) {
	base := Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 8192}
	key := base.CompileFingerprint()

	images := base
	images.Images = 256 * 1024
	if images.CompileFingerprint() != key {
		t.Error("Images perturbed the compile fingerprint; it only scales extrapolation")
	}
	weak := base
	weak.WeakScaling = true
	if weak.CompileFingerprint() != key {
		t.Error("WeakScaling perturbed the compile fingerprint; it only scales extrapolation")
	}
	for name, mutate := range map[string]func(*Workload){
		"Batch":  func(w *Workload) { w.Batch = 32 },
		"GPUs":   func(w *Workload) { w.GPUs = 4 },
		"Method": func(w *Workload) { w.Method = P2P },
	} {
		w := base
		mutate(&w)
		if w.CompileFingerprint() == key {
			t.Errorf("%s did not perturb the compile fingerprint; it shapes the compiled window", name)
		}
	}
}

// TestCompileFailureCompilesOnce: a workload that fails to compile fails
// identically every time, so repeating it serves the cached failure
// instead of compiling again.
func TestCompileFailureCompilesOnce(t *testing.T) {
	ResetCaches()
	w := Workload{Model: "resnet", GPUs: 2, Batch: 256}
	before := CompileCount()
	for i := 0; i < 3; i++ {
		if _, err := Run(w); !errors.Is(err, gpu.ErrOutOfMemory) {
			t.Fatalf("run %d: err = %v, want OOM", i, err)
		}
	}
	if got := CompileCount() - before; got != 1 {
		t.Errorf("3 runs of a failing workload compiled %d times, want 1", got)
	}
}

// ResetCaches drops the machine-topology memo, so the next compile
// builds the graph afresh (BenchmarkCoreRunCold measures that cost).
func TestResetCachesDropsMachineTopology(t *testing.T) {
	w := Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 8192, Hardware: "dgx2"}
	if _, err := Run(w); err != nil {
		t.Fatal(err)
	}
	before, err := train.MachineTopology("dgx2")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := train.MachineTopology("dgx2"); again != before {
		t.Fatal("the machine topology is not memoized")
	}
	ResetCaches()
	if _, err := Run(w); err != nil {
		t.Fatal(err)
	}
	if after, _ := train.MachineTopology("dgx2"); after == before {
		t.Error("ResetCaches kept the memoized machine topology")
	}
}
