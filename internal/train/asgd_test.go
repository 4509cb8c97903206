package train

import (
	"testing"
)

func runAsync(t *testing.T, model string, gpus, batch int) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, MethodP2P)
	cfg.Async = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// With one GPU there is nothing to desynchronize: async and sync schedules
// must land within a whisker of each other.
func TestAsyncSingleGPUMatchesSync(t *testing.T) {
	syncR := runQuick(t, "googlenet", 1, 16, MethodP2P)
	asyncR := runAsync(t, "googlenet", 1, 16)
	ratio := asyncR.EpochTime.Seconds() / syncR.EpochTime.Seconds()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("1-GPU async/sync = %.3f, want ~1", ratio)
	}
}

// The barrier is what ASGD removes: for the communication-bound AlexNet
// the async schedule must be clearly faster at high GPU counts.
func TestAsyncRemovesBarrierCost(t *testing.T) {
	syncR := runQuick(t, "alexnet", 4, 16, MethodP2P)
	asyncR := runAsync(t, "alexnet", 4, 16)
	speedup := syncR.EpochTime.Seconds() / asyncR.EpochTime.Seconds()
	if speedup < 1.1 {
		t.Errorf("async speedup %.2f for comm-bound AlexNet, want > 1.1", speedup)
	}
}

// Async iterations still do all the work: same kernel counts per epoch as
// the synchronous schedule (only the waiting differs).
func TestAsyncSameWorkDifferentWaiting(t *testing.T) {
	syncR := runQuick(t, "lenet", 4, 16, MethodP2P)
	asyncR := runAsync(t, "lenet", 4, 16)
	if syncR.Iterations != asyncR.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", syncR.Iterations, asyncR.Iterations)
	}
	s := syncR.Profile.Kernel("conv_fprop").Calls
	a := asyncR.Profile.Kernel("conv_fprop").Calls
	// Scaled extrapolation rounds; allow 2%.
	diff := float64(s-a) / float64(s)
	if diff < -0.02 || diff > 0.02 {
		t.Errorf("conv kernel counts differ: sync %d vs async %d", s, a)
	}
}

func TestAsyncThroughputMonotoneInGPUs(t *testing.T) {
	prev := 0.0
	for _, g := range []int{1, 2, 4, 8} {
		r := runAsync(t, "googlenet", g, 16)
		if r.Throughput <= prev {
			t.Errorf("%d GPUs: async throughput %.0f not above %.0f", g, r.Throughput, prev)
		}
		prev = r.Throughput
	}
}
