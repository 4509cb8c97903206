package train

import (
	"testing"

	"repro/internal/nccl"
	"repro/internal/units"
)

func runBucketed(t *testing.T, model string, gpus, batch int, method Method, bucket units.Bytes) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, method)
	cfg.BucketBytes = bucket
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

// Bucketing is the optimization the paper's overhead analysis motivates:
// fusing LeNet's tiny per-layer exchanges amortizes the per-operation
// costs that dominate its WU stage.
func TestBucketingHelpsLeNetNCCL(t *testing.T) {
	plain := runQuick(t, "lenet", 8, 16, MethodNCCL)
	bucketed := runBucketed(t, "lenet", 8, 16, MethodNCCL, units.MB)
	if bucketed.WUWall >= plain.WUWall {
		t.Errorf("bucketed WU (%v) should be below per-array WU (%v)", bucketed.WUWall, plain.WUWall)
	}
	if bucketed.EpochTime >= plain.EpochTime {
		t.Errorf("bucketed epoch (%v) should beat per-array (%v)", bucketed.EpochTime, plain.EpochTime)
	}
}

// For a bandwidth-bound model the same bucket size changes little: the
// wire time dominates either way.
func TestBucketingMarginalForAlexNet(t *testing.T) {
	plain := runQuick(t, "alexnet", 8, 16, MethodNCCL)
	bucketed := runBucketed(t, "alexnet", 8, 16, MethodNCCL, units.MB)
	ratio := plain.EpochTime.Seconds() / bucketed.EpochTime.Seconds()
	if ratio < 0.95 || ratio > 1.3 {
		t.Errorf("AlexNet bucketing effect %.2fx out of the marginal band", ratio)
	}
}

// A bucket threshold larger than the whole model degenerates to one fused
// exchange per iteration and must still be correct (all layers exchanged).
func TestBucketingWholeModel(t *testing.T) {
	res := runBucketed(t, "lenet", 4, 16, MethodNCCL, units.GB)
	if res.EpochTime <= 0 {
		t.Fatal("no result")
	}
	// Exactly one all-reduce per rank per iteration.
	perIter := float64(res.Profile.Kernel("ncclAllReduceRingKernel").Calls) / float64(res.Iterations) / 4
	if perIter < 0.9 || perIter > 1.1 {
		t.Errorf("whole-model bucket should give ~1 allreduce/rank/iter, got %.2f", perIter)
	}
}

func TestBucketingWorksWithP2P(t *testing.T) {
	plain := runQuick(t, "lenet", 4, 16, MethodP2P)
	bucketed := runBucketed(t, "lenet", 4, 16, MethodP2P, units.MB)
	if bucketed.EpochTime > plain.EpochTime {
		t.Errorf("P2P bucketing should not hurt: %v vs %v", bucketed.EpochTime, plain.EpochTime)
	}
}

// The tree algorithm (NCCL's post-paper addition) must repair part of the
// LeNet ring-latency penalty at 8 GPUs, while changing nothing at 1 GPU
// (no ring to replace).
func TestNCCLTreeHelpsLatencyBoundTraining(t *testing.T) {
	ring := runQuick(t, "lenet", 8, 16, MethodNCCL)
	cfg := quickCfg(t, "lenet", 8, 16, MethodNCCL)
	cfg.NCCL.Algorithm = nccl.AlgoTree
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tree.EpochTime >= ring.EpochTime {
		t.Errorf("tree (%v) should beat ring (%v) for LeNet at 8 GPUs", tree.EpochTime, ring.EpochTime)
	}
	// Bandwidth-bound AlexNet should be nearly indifferent.
	ringA := runQuick(t, "alexnet", 8, 64, MethodNCCL)
	cfgA := quickCfg(t, "alexnet", 8, 64, MethodNCCL)
	cfgA.NCCL.Algorithm = nccl.AlgoTree
	trA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	treeA, err := trA.Run()
	if err != nil {
		t.Fatal(err)
	}
	ratio := ringA.EpochTime.Seconds() / treeA.EpochTime.Seconds()
	if ratio < 0.95 || ratio > 1.15 {
		t.Errorf("AlexNet b64 tree/ring effect %.2fx should be marginal", ratio)
	}
}

// The three-way kvstore comparison: MXNet's default CPU parameter server
// ("local") must lose to both GPU-side methods for a weight-heavy model —
// the starting point that motivated the paper's comparison.
func TestLocalMethodIsSlowestEndToEnd(t *testing.T) {
	local := runQuick(t, "alexnet", 4, 16, MethodLocal)
	p2p := runQuick(t, "alexnet", 4, 16, MethodP2P)
	nc := runQuick(t, "alexnet", 4, 16, MethodNCCL)
	if local.EpochTime <= p2p.EpochTime || local.EpochTime <= nc.EpochTime {
		t.Errorf("local (%v) should be slower than p2p (%v) and nccl (%v)",
			local.EpochTime, p2p.EpochTime, nc.EpochTime)
	}
	// Its profile shows the CPU server working.
	if local.Profile.Transfer("memcpyDtoH 0->").Calls == 0 {
		t.Error("no DtoH gradient uploads recorded")
	}
}
