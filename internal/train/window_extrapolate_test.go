package train

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/profiler"
)

// TestExtrapolateZeroEpochNoNaN pins the zero-duration-epoch guard: the
// divisions finalizing SyncPercent, Throughput, and ComputeUtilization
// must not produce NaN/Inf (encoding/json rejects both, so one poisoned
// field kills the whole report body). A zero-duration window cannot come
// out of the simulator, so the test builds the degenerate Window by hand.
func TestExtrapolateZeroEpochNoNaN(t *testing.T) {
	cfg, err := NewConfig("lenet", 1, 16, MethodP2P)
	if err != nil {
		t.Fatal(err)
	}
	// The window's cap is zero, so it holds zero exactly-simulated
	// iterations and every duration term of the epoch is zero.
	w := &Window{cfg: cfg, nsim: 0, prof: profiler.New()}
	res, err := w.Extrapolate(16)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochTime != 0 {
		t.Fatalf("epoch = %v, want 0 for the degenerate window", res.EpochTime)
	}
	for name, v := range map[string]float64{
		"SyncPercent":        res.SyncPercent,
		"Throughput":         res.Throughput,
		"ComputeUtilization": res.ComputeUtilization,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a finite zero for a zero-duration epoch", name, v)
		}
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	// The poisoning the guard prevents: the result's scalar fields must
	// survive JSON encoding.
	if _, err := json.Marshal(map[string]float64{
		"syncPercent": res.SyncPercent,
		"throughput":  res.Throughput,
	}); err != nil {
		t.Errorf("zero-epoch result does not JSON-encode: %v", err)
	}
}

// TestExtrapolateRepeatable pins the shared-window contract the scratch
// reuse must keep: repeated extrapolations of one window are identical,
// i.e. no call mutates the window's own profile or schedule state.
func TestExtrapolateRepeatable(t *testing.T) {
	cfg := quickCfg(t, "lenet", 2, 16, MethodNCCL)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	win, err := tr.SimulateWindow()
	if err != nil {
		t.Fatal(err)
	}
	first, err := win.Extrapolate(cfg.Images)
	if err != nil {
		t.Fatal(err)
	}
	firstSync := win.prof.API("cudaStreamSynchronize").Total
	for i := 0; i < 3; i++ {
		again, err := win.Extrapolate(cfg.Images)
		if err != nil {
			t.Fatal(err)
		}
		if again.EpochTime != first.EpochTime || again.SyncPercent != first.SyncPercent ||
			again.Throughput != first.Throughput {
			t.Fatalf("extrapolation %d drifted: %+v vs %+v", i, again, first)
		}
		// The scaled clone must never write back into the window.
		if got := win.prof.API("cudaStreamSynchronize").Total; got != firstSync {
			t.Fatalf("window profile mutated by extrapolation: %v -> %v", firstSync, got)
		}
	}
}

// TestIterations pins the epoch arithmetic: an epoch takes
// ⌈images / (batch · GPUs)⌉ iterations, a final partial global batch
// costing a whole one, except under model parallelism, whose stages
// share one mini-batch per iteration; the window covers the epoch's
// first iterations up to its cap.
func TestIterations(t *testing.T) {
	for _, c := range []struct {
		name        string
		p           Parallelism
		images      int64
		batch, gpus int
		epoch       int64
		window      int
	}{
		{"paper subset", DataParallel, PaperDatasetImages, 16, 4, 4096, DefaultSimIters},
		{"partial batch", DataParallel, 100, 16, 4, 2, 2},
		{"one image", HybridOWT, 1, 16, 8, 1, 1},
		{"model parallel", ModelParallel, PaperDatasetImages, 16, 4, 16384, DefaultSimIters},
	} {
		epoch, window := Iterations(c.p, c.images, c.batch, c.gpus, DefaultSimIters)
		if epoch != c.epoch || window != c.window {
			t.Errorf("%s: Iterations = %d, %d; want %d, %d", c.name, epoch, window, c.epoch, c.window)
		}
	}
	// Weak scaling grows the dataset with the GPU count, so every GPU
	// count takes the one-GPU epoch's iterations.
	one, _ := Iterations(DataParallel, PaperDatasetImages, 16, 1, DefaultSimIters)
	for _, gpus := range []int{2, 4, 8} {
		if weak, _ := Iterations(DataParallel, PaperDatasetImages*int64(gpus), 16, gpus, DefaultSimIters); weak != one {
			t.Errorf("weak scaling on %d GPUs: %d iterations, want the one-GPU %d", gpus, weak, one)
		}
	}
}

// TestExtrapolateRejectsEmptyEpoch: an epoch of no images, or of a
// negative count, is an error, not a panic or a zero-iteration result.
func TestExtrapolateRejectsEmptyEpoch(t *testing.T) {
	tr, err := New(quickCfg(t, "lenet", 1, 16, MethodNCCL))
	if err != nil {
		t.Fatal(err)
	}
	win, err := tr.SimulateWindow()
	if err != nil {
		t.Fatal(err)
	}
	for _, images := range []int64{0, -1, -PaperDatasetImages} {
		if res, err := win.Extrapolate(images); err == nil {
			t.Errorf("Extrapolate(%d) = %+v, want an error", images, res)
		}
	}
}

// An epoch past what int64 nanoseconds hold is ErrEpochTooLarge, never a
// wrapped report: ResNet-50 at batch 1 on 8 GPUs over P2P takes about
// 25 ms an iteration, so 10^12 images (1.25·10^11 iterations) is about
// 100 years, and more than MaxImages images is rejected outright. The
// failed calls leave the window as it was.
func TestExtrapolateRejectsOverflow(t *testing.T) {
	tr, err := New(quickCfg(t, "resnet", 8, 1, MethodP2P))
	if err != nil {
		t.Fatal(err)
	}
	win, err := tr.SimulateWindow()
	if err != nil {
		t.Fatal(err)
	}
	want, err := win.Extrapolate(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, images := range []int64{1_000_000_000_000, MaxImages + 1, math.MaxInt64} {
		if res, err := win.Extrapolate(images); !errors.Is(err, ErrEpochTooLarge) {
			t.Errorf("Extrapolate(%d) = %+v, %v; want ErrEpochTooLarge", images, res, err)
		}
	}
	got, err := win.Extrapolate(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.EpochTime != want.EpochTime || got.Profile.Summary() != want.Profile.Summary() {
		t.Errorf("after the rejected epochs: epoch %v, want %v", got.EpochTime, want.EpochTime)
	}
	// A decade-long epoch still fits, with sane fractions.
	res, err := win.Extrapolate(10_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochTime <= 0 || res.SyncPercent < 0 || res.SyncPercent > 100 || res.ComputeUtilization > 1 {
		t.Errorf("10^10 images: epoch %v, sync %.1f%%, utilization %.3f", res.EpochTime, res.SyncPercent, res.ComputeUtilization)
	}
}

// A configuration past MaxImages is rejected before anything is built.
func TestNewRejectsImagesPastBound(t *testing.T) {
	cfg := quickCfg(t, "lenet", 8, 16, MethodNCCL)
	cfg.Images = math.MaxInt64
	if _, err := New(cfg); !errors.Is(err, ErrEpochTooLarge) {
		t.Errorf("New(Images = MaxInt64) = %v, want ErrEpochTooLarge", err)
	}
}

// TestEpochTimeMatchesExtrapolate pins EpochTime to Extrapolate under
// every schedule and on a faulted fabric: for each epoch size, the
// boundaries of the window's iteration count and the image limits, the
// two return the same epoch or the same error — no images, too many, a
// window of another iteration count, and an epoch that overflows.
func TestEpochTimeMatchesExtrapolate(t *testing.T) {
	straggler := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Slowdown: 1.5}}}
	cases := []struct {
		name   string
		model  string
		gpus   int
		batch  int
		method Method
		edit   func(*Config)
	}{
		{"sync", "lenet", 2, 16, MethodNCCL, func(*Config) {}},
		{"async", "alexnet", 4, 32, MethodP2P, func(c *Config) { c.Async = true }},
		{"model-parallel", "alexnet", 4, 32, MethodNCCL, func(c *Config) { c.Parallelism = ModelParallel }},
		{"hybrid", "alexnet", 4, 32, MethodNCCL, func(c *Config) { c.Parallelism = HybridOWT }},
		{"faulted", "googlenet", 4, 16, MethodNCCL, func(c *Config) { c.Faults = straggler }},
	}
	for _, tc := range cases {
		cfg := quickCfg(t, tc.model, tc.gpus, tc.batch, tc.method)
		tc.edit(&cfg)
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		win, err := tr.SimulateWindow()
		if err != nil {
			t.Fatal(err)
		}
		per := int64(cfg.Batch)
		if cfg.Parallelism != ModelParallel {
			per *= int64(cfg.GPUs)
		}
		n := int64(DefaultSimIters)
		// A steady iteration of a quarter of math.MaxInt64 overflows the
		// epoch once it repeats twice past the window.
		huge := *win
		huge.last.steady = math.MaxInt64 / 4
		type probe struct {
			win    *Window
			images int64
		}
		probes := []probe{{&huge, (n + 1) * per}, {&huge, (n + 2) * per}}
		for _, images := range []int64{1, (n-1)*per - 1, (n - 1) * per, (n-1)*per + 1, n * per, n*per + 1,
			cfg.Images, MaxImages, 0, -1, MaxImages + 1} {
			probes = append(probes, probe{win, images})
		}
		for _, p := range probes {
			epoch, err := p.win.EpochTime(p.images)
			res, xerr := p.win.Extrapolate(p.images)
			switch {
			case err == nil && xerr == nil:
				if epoch != res.EpochTime {
					t.Errorf("%s, %d images: EpochTime %v, Extrapolate %v", tc.name, p.images, epoch, res.EpochTime)
				}
			case err == nil || xerr == nil || err.Error() != xerr.Error() ||
				errors.Is(err, ErrEpochTooLarge) != errors.Is(xerr, ErrEpochTooLarge):
				t.Errorf("%s, %d images: EpochTime error %v, Extrapolate error %v", tc.name, p.images, err, xerr)
			}
		}
		for _, p := range []probe{probes[1], {win, MaxImages + 1}} {
			if _, err := p.win.EpochTime(p.images); !errors.Is(err, ErrEpochTooLarge) {
				t.Errorf("%s, %d images: error %v, want ErrEpochTooLarge", tc.name, p.images, err)
			}
		}
		for _, images := range []int64{0, -1, (n - 1) * per} {
			if _, err := win.EpochTime(images); err == nil {
				t.Errorf("%s, %d images: no error", tc.name, images)
			}
		}
	}
}
