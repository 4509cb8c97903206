package train

import (
	"testing"
)

func runHybrid(t *testing.T, model string, gpus, batch int) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, MethodNCCL)
	cfg.Parallelism = HybridOWT
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

func TestHybridRuns(t *testing.T) {
	res := runHybrid(t, "alexnet", 4, 16)
	if res.EpochTime <= 0 {
		t.Fatal("no epoch")
	}
	// Data-parallel body: iterations follow the global batch.
	if res.Iterations != 256*1024/(16*4) {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.Profile.Kernel("fc_slice_fprop").Calls == 0 {
		t.Error("no sliced FC kernels recorded")
	}
	if res.Profile.Kernel("ncclAllGatherRingKernel").Calls == 0 {
		t.Error("no activation all-gathers recorded")
	}
}

// The headline: hybrid parallelism removes AlexNet's 224MB FC exchange and
// must beat pure data parallelism where that exchange dominates (b16 at
// 4 and 8 GPUs) — the quantitative form of the paper's §I claim.
func TestHybridBeatsDataParallelForAlexNet(t *testing.T) {
	for _, g := range []int{4, 8} {
		dp := runQuick(t, "alexnet", g, 16, MethodNCCL)
		hy := runHybrid(t, "alexnet", g, 16)
		if hy.EpochTime >= dp.EpochTime {
			t.Errorf("%d GPUs: hybrid (%v) should beat data parallel (%v)", g, hy.EpochTime, dp.EpochTime)
		}
	}
}

// For a conv-dominated network with a tiny head the two schemes should be
// close (the head barely matters either way).
func TestHybridNeutralForConvNets(t *testing.T) {
	dp := runQuick(t, "resnet", 4, 16, MethodNCCL)
	hy := runHybrid(t, "resnet", 4, 16)
	ratio := hy.EpochTime.Seconds() / dp.EpochTime.Seconds()
	if ratio < 0.9 || ratio > 1.2 {
		t.Errorf("ResNet hybrid/DP = %.2f, want near 1", ratio)
	}
}

func TestSplitHeadValidation(t *testing.T) {
	for _, m := range []string{"lenet", "alexnet", "googlenet", "resnet", "inception-v3"} {
		res := runHybridOrErr(t, m)
		_ = res
	}
}

func runHybridOrErr(t *testing.T, model string) *Result {
	t.Helper()
	cfg := quickCfg(t, model, 2, 16, MethodNCCL)
	cfg.Parallelism = HybridOWT
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	if res.EpochTime <= 0 {
		t.Fatalf("%s: empty result", model)
	}
	return res
}
