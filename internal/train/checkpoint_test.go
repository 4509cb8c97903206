package train

import (
	"testing"
)

// Gradient checkpointing is the paper's requested "algorithm-level change"
// for the feature-map wall: it must unlock batch sizes the measured system
// could not train, at a bounded time cost.
func TestCheckpointingUnlocksLargerBatches(t *testing.T) {
	// Inception-v3 at batch 128 OOMs without checkpointing...
	plain := quickCfg(t, "inception-v3", 4, 128, MethodNCCL)
	if _, err := New(plain); err == nil {
		t.Fatal("batch 128 should OOM without checkpointing")
	}
	// ...and trains with it.
	ck := quickCfg(t, "inception-v3", 4, 128, MethodNCCL)
	ck.Checkpointing = true
	tr, err := New(ck)
	if err != nil {
		t.Fatalf("checkpointing should fit batch 128: %v", err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
}

// The cost: roughly one extra forward pass during BP, so the epoch slows
// by a bounded factor (~1.2-1.45x for conv nets) at equal batch size.
func TestCheckpointingTimeCostBounded(t *testing.T) {
	plain := runQuick(t, "resnet", 4, 32, MethodNCCL)
	cfg := quickCfg(t, "resnet", 4, 32, MethodNCCL)
	cfg.Checkpointing = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	slowdown := ck.EpochTime.Seconds() / plain.EpochTime.Seconds()
	if slowdown < 1.1 || slowdown > 1.6 {
		t.Errorf("checkpointing slowdown = %.2fx, want ~1.2-1.45x", slowdown)
	}
	if ck.Profile.Kernel("recompute_conv_fprop").Calls == 0 {
		t.Error("no recompute kernels recorded")
	}
	// Memory shrinks substantially.
	if tr.Memory().FeatureMaps >= plain.Memory.FeatureMaps/2 {
		t.Errorf("checkpointed feature maps %v vs plain %v", tr.Memory().FeatureMaps, plain.Memory.FeatureMaps)
	}
}

// Winograd lowering (cuDNN's 3x3 fast path) must speed up the 3x3-heavy
// networks and leave AlexNet (11x11/5x5 convs and FC weight) nearly alone.
func TestWinogradAblation(t *testing.T) {
	speedup := func(model string) float64 {
		plain := runQuick(t, model, 1, 32, MethodP2P)
		cfg := quickCfg(t, model, 1, 32, MethodP2P)
		cfg.Winograd = true
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if model == "resnet" && wg.Profile.Kernel("conv_winograd_fprop").Calls == 0 {
			t.Error("no winograd kernels recorded for resnet")
		}
		return plain.EpochTime.Seconds() / wg.EpochTime.Seconds()
	}
	res := speedup("resnet") // 3x3-dominated
	if res < 1.1 {
		t.Errorf("ResNet Winograd speedup %.2f, want > 1.1", res)
	}
	alex := speedup("alexnet") // few eligible convs
	if alex >= res {
		t.Errorf("AlexNet (%.2f) should gain less than ResNet (%.2f)", alex, res)
	}
}

// Only data parallelism launches the recompute pass and fuses gradient
// exchanges; the other schedules reject both options rather than report a
// memory model or a configuration their kernels ignore.
func TestOnlyDataParallelCheckpointsOrBuckets(t *testing.T) {
	for p, name := range map[Parallelism]string{ModelParallel: "model-parallel", HybridOWT: "hybrid-owt"} {
		for _, tc := range []struct {
			set  func(*Config)
			want string
		}{
			{func(c *Config) { c.Checkpointing = true }, "train: checkpointing applies only to synchronous data-parallel runs, not " + name},
			{func(c *Config) { c.BucketBytes = 4 << 20 }, "train: gradient buckets apply only to synchronous data-parallel runs, not " + name},
		} {
			cfg := quickCfg(t, "alexnet", 4, 32, MethodNCCL)
			cfg.Parallelism = p
			tc.set(&cfg)
			if _, err := New(cfg); err == nil || err.Error() != tc.want {
				t.Errorf("%s: New = %v, want %q", name, err, tc.want)
			}
		}
	}
}

// Async SGD launches neither the recompute pass nor fused exchanges, so
// it rejects both options instead of reporting the checkpointed memory
// estimate for a run that keeps every feature map.
func TestAsyncRejectsCheckpointsAndBuckets(t *testing.T) {
	for _, tc := range []struct {
		set  func(*Config)
		want string
	}{
		{func(c *Config) { c.Checkpointing = true }, "train: checkpointing applies only to synchronous data-parallel runs, not async SGD"},
		{func(c *Config) { c.BucketBytes = 4 << 20 }, "train: gradient buckets apply only to synchronous data-parallel runs, not async SGD"},
	} {
		cfg := quickCfg(t, "resnet", 4, 32, MethodP2P)
		cfg.Async = true
		tc.set(&cfg)
		if _, err := New(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("New = %v, want %q", err, tc.want)
		}
	}
}

// The model-parallel and hybrid schedules read the same kernel tables as
// data parallelism, so they launch Winograd kernels when it is on.
func TestWinogradReachesEverySchedule(t *testing.T) {
	for _, p := range []Parallelism{ModelParallel, HybridOWT} {
		cfg := quickCfg(t, "alexnet", 4, 32, MethodNCCL)
		cfg.Parallelism, cfg.Winograd = p, true
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Profile.Kernel("conv_winograd_fprop").Calls == 0 {
			t.Errorf("parallelism %d: no conv_winograd_fprop kernels recorded", p)
		}
	}
}
