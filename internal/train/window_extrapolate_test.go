package train

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/kvstore"
	"repro/internal/profiler"
)

// TestExtrapolateZeroEpochNoNaN pins the zero-duration-epoch guard: the
// divisions finalizing SyncPercent, Throughput, and ComputeUtilization
// must not produce NaN/Inf (encoding/json rejects both, so one poisoned
// field kills the whole report body). A zero-duration window cannot come
// out of the simulator, so the test builds the degenerate Window by hand.
func TestExtrapolateZeroEpochNoNaN(t *testing.T) {
	cfg, err := NewConfig("lenet", 1, 16, kvstore.MethodP2P)
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
	cfg := quickCfg(t, "lenet", 2, 16, kvstore.MethodNCCL)
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

// TestMemoSchedule pins the schedule memo against the function it
// replaces: a memoized plan is the plan a fresh call returns.
func TestMemoSchedule(t *testing.T) {
	cfg := quickCfg(t, "alexnet", 4, 32, kvstore.MethodNCCL)
	shape := cfg.Model.InputShape
	for _, images := range []int64{64, 4096, 64 * 1024} {
		fresh, err := data.NewSchedule(data.ImageNetSubset(images), shape, cfg.Batch, cfg.GPUs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // second pass exercises the memo hit
			memo, err := memoSchedule(images, shape, cfg.Batch, cfg.GPUs)
			if err != nil {
				t.Fatal(err)
			}
			if memo != fresh {
				t.Fatalf("images=%d pass=%d: memo %+v != fresh %+v", images, i, memo, fresh)
			}
		}
	}
	// Error paths must not be memoized as successes.
	if _, err := memoSchedule(0, shape, cfg.Batch, cfg.GPUs); err == nil {
		t.Error("empty dataset should fail to plan")
	}
}

// TestScheduleMemoBounded: Images arrives from clients, and every
// distinct value is its own epoch plan, so the memo must stay within
// its capacity however many distinct values one window extrapolates to.
func TestScheduleMemoBounded(t *testing.T) {
	tr, err := New(quickCfg(t, "lenet", 1, 16, kvstore.MethodNCCL))
	if err != nil {
		t.Fatal(err)
	}
	win, err := tr.SimulateWindow()
	if err != nil {
		t.Fatal(err)
	}
	max := scheduleMemo.Stats().Max
	for i := 0; i < 10_000; i++ {
		if _, err := win.Extrapolate(4096 + int64(i)); err != nil {
			t.Fatal(err)
		}
		if n := scheduleMemo.Stats().Size; n > max {
			t.Fatalf("after %d distinct epochs the schedule memo holds %d plans, cap %d", i+1, n, max)
		}
	}
}
