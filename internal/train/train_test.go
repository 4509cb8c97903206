package train

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/units"
)

// quickCfg returns a config with a small dataset so tests run fast; the
// steady-state extrapolation makes epoch shape independent of dataset size.
func quickCfg(t *testing.T, model string, gpus, batch int, method Method) Config {
	t.Helper()
	cfg, err := NewConfig(model, gpus, batch, method)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runQuick(t *testing.T, model string, gpus, batch int, method Method) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, method)
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

func TestConfigValidation(t *testing.T) {
	if _, err := NewConfig("nope", 1, 16, MethodP2P); err == nil {
		t.Error("unknown model should error")
	}
	cfg := quickCfg(t, "lenet", 1, 16, MethodP2P)
	cfg.GPUs = 9
	if _, err := New(cfg); err == nil {
		t.Error("9 GPUs should error")
	}
	cfg.GPUs = 0
	if _, err := New(cfg); err == nil {
		t.Error("0 GPUs should error")
	}
	cfg = quickCfg(t, "lenet", 1, 16, MethodP2P)
	cfg.Batch = 0
	if _, err := New(cfg); err == nil {
		t.Error("0 batch should error")
	}
	// An unknown method is rejected before New memoizes a machine
	// template under it.
	before := templates.Stats().Size
	cfg = quickCfg(t, "lenet", 1, 16, "bogus")
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `unknown method "bogus"`) {
		t.Errorf("bogus method: New = %v, want an unknown-method error", err)
	}
	if after := templates.Stats().Size; after != before {
		t.Errorf("the rejected method left %d templates, want %d", after, before)
	}
}

func TestResultBasics(t *testing.T) {
	res := runQuick(t, "lenet", 2, 16, MethodP2P)
	if res.EpochTime <= 0 || res.SteadyIter <= 0 {
		t.Fatal("non-positive times")
	}
	if res.Iterations != 256*1024/(16*2) {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.Throughput <= 0 {
		t.Error("throughput should be positive")
	}
	if res.FPBPWall() != res.FPWall+res.BPWall {
		t.Error("FPBPWall inconsistent")
	}
	if got := res.FPWall + res.BPWall + res.WUWall; got > res.EpochTime {
		t.Errorf("stage walls (%v) exceed epoch (%v)", got, res.EpochTime)
	}
	if res.ComputeUtilization <= 0 || res.ComputeUtilization >= 1 {
		t.Errorf("utilization = %v out of (0,1)", res.ComputeUtilization)
	}
	if res.SyncPercent <= 0 || res.SyncPercent >= 100 {
		t.Errorf("sync%% = %v out of (0,100)", res.SyncPercent)
	}
}

// The memory gate is Table IV's trainability wall. Under data
// parallelism New refuses exactly the configurations memmodel.FitsDevice
// rejects (56 of this 240-config grid); model-parallel and checkpointed
// configurations that still overflow wrap the same sentinel.
func TestOOMConfigurationsRejected(t *testing.T) {
	type gateCase struct {
		name string
		cfg  Config
		fits bool
	}
	capacity := gpu.V100().MemCapacity
	var grid []gateCase
	oom := 0
	for _, name := range models.Names() {
		for _, gpus := range []int{1, 2, 4, 8} {
			for _, batch := range []int{16, 32, 64, 128, 256, 512} {
				for _, method := range []Method{MethodP2P, MethodNCCL} {
					cfg := quickCfg(t, name, gpus, batch, method)
					fits := memmodel.FitsDevice(cfg.Model.Net, batch, gpus > 1, capacity)
					if !fits {
						oom++
					}
					grid = append(grid, gateCase{fmt.Sprintf("%s/%dgpu_b%d_%s", name, gpus, batch, method), cfg, fits})
				}
			}
		}
	}
	if oom != 56 {
		t.Errorf("%d configurations out of memory, want 56", oom)
	}
	for _, c := range grid {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.cfg)
			if c.fits && err != nil || !c.fits && !errors.Is(err, gpu.ErrOutOfMemory) {
				t.Errorf("FitsDevice %v, New error %v", c.fits, err)
			}
		})
	}

	t.Run("error_text", func(t *testing.T) {
		_, err := New(quickCfg(t, "googlenet", 1, 512, MethodP2P))
		const want = `train: GoogLeNet batch 512 on 1 GPUs: gpu: alloc 25.71GB under "training": used 0B of 16.00GB: gpu: out of memory`
		if err == nil || err.Error() != want {
			t.Errorf("OOM error = %v, want %s", err, want)
		}
	})

	// At the boundary the root's footprint plus the driver reserve must
	// fit; the workers' smaller footprint does not decide it.
	t.Run("root_boundary", func(t *testing.T) {
		edge := quickCfg(t, "alexnet", 4, 64, MethodP2P)
		need := memmodel.Compute(edge.Model.Net, 64, true).Root() + memmodel.DriverReserve
		for _, capacity := range []units.Bytes{need, need - 1} {
			spec := gpu.V100()
			spec.MemCapacity = capacity
			edge.GPUSpec = &spec
			if _, err := New(edge); (capacity == need) != (err == nil) || err != nil && !errors.Is(err, gpu.ErrOutOfMemory) {
				t.Errorf("capacity %v for a %v footprint: New error %v", capacity, need, err)
			}
		}
	})

	mp := quickCfg(t, "resnet", 2, 256, MethodP2P)
	mp.Parallelism = ModelParallel
	ckpt := quickCfg(t, "resnet", 2, 512, MethodNCCL)
	ckpt.Checkpointing = true
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"model_parallel", mp}, {"checkpointed", ckpt}} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(cfg); !errors.Is(err, gpu.ErrOutOfMemory) {
				t.Errorf("%v checkpointing=%v: New error %v, want out of memory", cfg.Parallelism, cfg.Checkpointing, err)
			}
		})
	}
}

// Paper anchor: NCCL on a single GPU adds ~21.8% for LeNet batch 16, and
// the overhead grows with batch size for the small networks while staying
// small for the large ones.
func TestTableIIAnchors(t *testing.T) {
	overhead := func(model string, batch int) float64 {
		p := runQuick(t, model, 1, batch, MethodP2P)
		n := runQuick(t, model, 1, batch, MethodNCCL)
		return 100 * (n.EpochTime.Seconds() - p.EpochTime.Seconds()) / p.EpochTime.Seconds()
	}
	le16 := overhead("lenet", 16)
	if le16 < 12 || le16 > 32 {
		t.Errorf("LeNet b16 NCCL overhead = %.1f%%, want ~21.8%%", le16)
	}
	if le64 := overhead("lenet", 64); le64 <= le16 {
		t.Errorf("LeNet overhead should grow with batch: b16=%.1f%% b64=%.1f%%", le16, le64)
	}
	for _, m := range []string{"resnet", "googlenet"} {
		if ov := overhead(m, 16); ov < 0 || ov > 6 {
			t.Errorf("%s b16 overhead = %.1f%%, want small positive", m, ov)
		}
	}
}

// Paper anchor (§V-A): LeNet b16 speedups at 2/4/8 GPUs — P2P ≈
// 1.62/2.37/3.36, NCCL ≈ 1.56/2.27/2.77 — and P2P beats NCCL for LeNet.
func TestLeNetScalingShape(t *testing.T) {
	for _, m := range []Method{MethodP2P, MethodNCCL} {
		base := runQuick(t, "lenet", 1, 16, m)
		prev := base.EpochTime
		speedups := map[int]float64{}
		for _, g := range []int{2, 4, 8} {
			r := runQuick(t, "lenet", g, 16, m)
			if r.EpochTime >= prev {
				t.Errorf("lenet %s: %d GPUs (%v) not faster than fewer (%v)", m, g, r.EpochTime, prev)
			}
			prev = r.EpochTime
			speedups[g] = base.EpochTime.Seconds() / r.EpochTime.Seconds()
		}
		// Sub-linear scaling: communication dominates the tiny network.
		if speedups[8] > 4.0 {
			t.Errorf("lenet %s 8-GPU speedup %.2f should be far below linear", m, speedups[8])
		}
		if speedups[8] < 2.0 {
			t.Errorf("lenet %s 8-GPU speedup %.2f too low", m, speedups[8])
		}
	}
	p := runQuick(t, "lenet", 4, 16, MethodP2P)
	n := runQuick(t, "lenet", 4, 16, MethodNCCL)
	if p.EpochTime >= n.EpochTime {
		t.Errorf("P2P (%v) should beat NCCL (%v) for LeNet at 4 GPUs", p.EpochTime, n.EpochTime)
	}
}

// Paper anchor: for the compute-intensive networks NCCL beats P2P at 4 and
// 8 GPUs (~1.1x and ~1.2-1.25x).
func TestNCCLBeatsP2PForLargeNets(t *testing.T) {
	for _, model := range []string{"resnet", "inception-v3"} {
		r4p := runQuick(t, model, 4, 16, MethodP2P)
		r4n := runQuick(t, model, 4, 16, MethodNCCL)
		s4 := r4p.EpochTime.Seconds() / r4n.EpochTime.Seconds()
		if s4 < 1.05 || s4 > 1.45 {
			t.Errorf("%s 4-GPU NCCL advantage = %.2fx, want ~1.1-1.3x", model, s4)
		}
		r8p := runQuick(t, model, 8, 16, MethodP2P)
		r8n := runQuick(t, model, 8, 16, MethodNCCL)
		s8 := r8p.EpochTime.Seconds() / r8n.EpochTime.Seconds()
		if s8 <= s4 {
			t.Errorf("%s NCCL advantage should grow with GPUs: 4=%.2f 8=%.2f", model, s4, s8)
		}
	}
}

// Paper anchor (§V-A): increasing batch size reduces epoch time roughly
// linearly; for LeNet on 4 GPUs with P2P the paper reports 1.92x and 3.67x
// going 16 -> 32 -> 64.
func TestBatchScalingNearLinear(t *testing.T) {
	b16 := runQuick(t, "lenet", 4, 16, MethodP2P)
	b32 := runQuick(t, "lenet", 4, 32, MethodP2P)
	b64 := runQuick(t, "lenet", 4, 64, MethodP2P)
	r32 := b16.EpochTime.Seconds() / b32.EpochTime.Seconds()
	r64 := b16.EpochTime.Seconds() / b64.EpochTime.Seconds()
	if r32 < 1.6 || r32 > 2.3 {
		t.Errorf("16->32 factor = %.2f, want ~1.92", r32)
	}
	if r64 < 3.0 || r64 > 4.4 {
		t.Errorf("16->64 factor = %.2f, want ~3.67", r64)
	}
}

// Paper: FP+BP dominates epoch time for the compute-heavy networks at
// every GPU count, and single-GPU WU is negligible.
func TestStageBreakdownShapes(t *testing.T) {
	for _, g := range []int{1, 4} {
		r := runQuick(t, "inception-v3", g, 16, MethodNCCL)
		if r.FPBPWall() < r.WUWall {
			t.Errorf("inception %d GPUs: FP+BP (%v) should dominate WU (%v)", g, r.FPBPWall(), r.WUWall)
		}
	}
	r1 := runQuick(t, "googlenet", 1, 16, MethodNCCL)
	if float64(r1.WUWall) > 0.05*float64(r1.EpochTime) {
		t.Errorf("single-GPU WU (%v) should be tiny vs epoch (%v)", r1.WUWall, r1.EpochTime)
	}
}

// Paper Table III trends: cudaStreamSynchronize share grows with GPU count
// and shrinks with batch size.
func TestSyncOverheadTrends(t *testing.T) {
	g1 := runQuick(t, "lenet", 1, 16, MethodNCCL)
	g8 := runQuick(t, "lenet", 8, 16, MethodNCCL)
	if g8.SyncPercent <= g1.SyncPercent {
		t.Errorf("sync%% should grow with GPUs: 1=%.1f 8=%.1f", g1.SyncPercent, g8.SyncPercent)
	}
	b16 := runQuick(t, "lenet", 8, 16, MethodNCCL)
	b64 := runQuick(t, "lenet", 8, 64, MethodNCCL)
	if b64.SyncPercent >= b16.SyncPercent {
		t.Errorf("sync%% should shrink with batch: b16=%.1f b64=%.1f", b16.SyncPercent, b64.SyncPercent)
	}
}

// Weak scaling (paper Figure 5): with the dataset scaled by GPU count, the
// time normalized to 256K images is no worse than strong scaling, and
// slightly better for the API-bound small networks.
func TestWeakScalingAtLeastStrong(t *testing.T) {
	for _, model := range []string{"lenet", "googlenet"} {
		strong := runQuick(t, model, 4, 16, MethodNCCL)
		cfg := quickCfg(t, model, 4, 16, MethodNCCL)
		cfg.Images = cfg.Images * 4
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		weak, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		per256K := weak.EpochTime / 4
		if float64(per256K) > 1.02*float64(strong.EpochTime) {
			t.Errorf("%s: weak-scaled per-256K time (%v) should not exceed strong (%v)",
				model, per256K, strong.EpochTime)
		}
	}
}

func TestLowUtilizationForLeNet(t *testing.T) {
	r := runQuick(t, "lenet", 1, 16, MethodP2P)
	// Paper: 18.3% compute utilization for LeNet.
	if r.ComputeUtilization > 0.35 {
		t.Errorf("LeNet utilization = %.2f, should be low (paper: 0.183)", r.ComputeUtilization)
	}
	big := runQuick(t, "inception-v3", 1, 16, MethodP2P)
	if big.ComputeUtilization <= 2*r.ComputeUtilization {
		t.Error("Inception-v3 should utilize the GPU far better than LeNet")
	}
}

func TestProfileAccounting(t *testing.T) {
	r := runQuick(t, "lenet", 2, 16, MethodNCCL)
	p := r.Profile
	if p.API("cudaLaunchKernel").Calls == 0 {
		t.Error("no launches recorded")
	}
	if p.API("cudaStreamSynchronize").Calls == 0 {
		t.Error("no syncs recorded")
	}
	if p.Kernel("ncclAllReduceRingKernel").Calls == 0 {
		t.Error("no NCCL kernels recorded")
	}
	if p.Kernel("conv_fprop").Calls == 0 {
		t.Error("no conv kernels recorded")
	}
}

func TestAsyncSGD(t *testing.T) {
	cfg := quickCfg(t, "lenet", 4, 16, MethodP2P)
	cfg.Async = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochTime <= 0 {
		t.Fatal("async epoch not positive")
	}
	// Without the barrier, async should not be slower than sync.
	sync := runQuick(t, "lenet", 4, 16, MethodP2P)
	if float64(res.EpochTime) > 1.1*float64(sync.EpochTime) {
		t.Errorf("async (%v) should not be much slower than sync (%v)", res.EpochTime, sync.EpochTime)
	}
}

// TestNewRejectsIllegalSchedules: every schedule's legality is checked
// by Config.normalize, so New rejects the configuration before lowering
// plans or reserving device memory.
func TestNewRejectsIllegalSchedules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gpus   int
		method Method
		apply  func(*Config)
		want   string
	}{
		{"async model-parallel", 2, MethodP2P, func(c *Config) { c.Async, c.Parallelism = true, ModelParallel }, "async SGD supports only data parallelism"},
		{"async hybrid", 2, MethodP2P, func(c *Config) { c.Async, c.Parallelism = true, HybridOWT }, "async SGD supports only data parallelism"},
		{"hybrid on one GPU", 1, MethodNCCL, func(c *Config) { c.Parallelism = HybridOWT }, "hybrid parallelism needs at least 2 GPUs"},
		{"async without p2p", 2, MethodNCCL, func(c *Config) { c.Async = true }, "async SGD requires the p2p method"},
		{"async default method", 2, "", func(c *Config) { c.Async = true }, "async SGD requires the p2p method"},
		{"hybrid without nccl", 4, MethodP2P, func(c *Config) { c.Parallelism = HybridOWT }, `hybrid parallelism requires the nccl method, got "p2p"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(t, "alexnet", tc.gpus, 16, tc.method)
			tc.apply(&cfg)
			tr, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want an error containing %q", err, tc.want)
			}
			if tr != nil {
				t.Error("a rejected config still built a trainer")
			}
		})
	}
}

func TestDetailProfileForTimeline(t *testing.T) {
	cfg := quickCfg(t, "lenet", 2, 16, MethodNCCL)
	cfg.DetailIntervals = 500
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.prof.Intervals()) == 0 {
		t.Error("detail mode retained no intervals")
	}
}

func TestTensorCoreAblation(t *testing.T) {
	on := runQuick(t, "resnet", 1, 16, MethodP2P)
	cfg := quickCfg(t, "resnet", 1, 16, MethodP2P)
	cfg.TensorCores = false
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if off.EpochTime <= on.EpochTime {
		t.Errorf("disabling tensor cores (%v) should slow training (%v)", off.EpochTime, on.EpochTime)
	}
}

func TestSimItersConvergence(t *testing.T) {
	// More simulated iterations should barely change the extrapolated
	// epoch (steady state reached quickly).
	cfg := quickCfg(t, "googlenet", 4, 16, MethodNCCL)
	run := func(simIters int) *Result {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.simIters = simIters
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ra, rb := run(3), run(8)
	diff := ra.EpochTime.Seconds() - rb.EpochTime.Seconds()
	if diff < 0 {
		diff = -diff
	}
	if diff/ra.EpochTime.Seconds() > 0.02 {
		t.Errorf("epoch estimate unstable: %v vs %v", ra.EpochTime, rb.EpochTime)
	}
}

func TestMemoryAccessor(t *testing.T) {
	cfg := quickCfg(t, "alexnet", 4, 32, MethodNCCL)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Memory().Worker() <= 0 {
		t.Error("memory estimate missing")
	}
}

func TestAllModelsRunAllMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in long mode only")
	}
	for _, d := range models.All() {
		for _, m := range []Method{MethodP2P, MethodNCCL} {
			for _, g := range []int{1, 2, 4, 8} {
				name, method, gpus := d.Name, m, g
				cfg, err := NewConfig(map[string]string{
					"LeNet": "lenet", "AlexNet": "alexnet", "GoogLeNet": "googlenet",
					"Inception-v3": "inception-v3", "ResNet": "resnet",
				}[name], gpus, 16, method)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := New(cfg)
				if err != nil {
					t.Fatalf("%s %s %d: %v", name, method, gpus, err)
				}
				res, err := tr.Run()
				if err != nil {
					t.Fatalf("%s %s %d: %v", name, method, gpus, err)
				}
				if res.EpochTime <= 0 || res.EpochTime > 2*time.Hour {
					t.Errorf("%s %s %d: implausible epoch %v", name, method, gpus, res.EpochTime)
				}
			}
		}
	}
}

// The paper: "some of the GPUs become idle during DNN training" under
// P2P because of the GPU0 role and asymmetric links. GPU0 runs the
// aggregation kernels, so it is strictly busier than every worker: the
// spread between the busiest and least busy GPU is positive.
func TestGPU0BusiestUnderP2P(t *testing.T) {
	four := runQuick(t, "resnet", 4, 16, MethodP2P)
	for d, f := range four.GPUComputeBusy {
		if d != 0 && f >= four.GPUComputeBusy[0] {
			t.Errorf("GPU0 should be the busiest: %v", four.GPUComputeBusy)
		}
	}
	if len(four.GPUComputeBusy) != 4 {
		t.Errorf("busy map size = %d", len(four.GPUComputeBusy))
	}
}
