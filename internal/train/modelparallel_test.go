package train

import (
	"maps"
	"testing"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/topology"
)

func runMP(t *testing.T, model string, gpus, batch, micro int) *Result {
	t.Helper()
	cfg := quickCfg(t, model, gpus, batch, MethodP2P)
	cfg.Parallelism = ModelParallel
	cfg.MicroBatches = micro
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

// TestModelParallelBusyAnyMethod: model parallelism books the same
// setup under every method, since its stages construct no communicator,
// so each GPU's compute busy fraction is the same under all three.
func TestModelParallelBusyAnyMethod(t *testing.T) {
	var want map[topology.NodeID]float64
	for _, m := range []Method{MethodP2P, MethodNCCL, MethodLocal} {
		cfg := quickCfg(t, "alexnet", 4, 32, m)
		cfg.Parallelism = ModelParallel
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.GPUComputeBusy
			continue
		}
		if !maps.Equal(res.GPUComputeBusy, want) {
			t.Errorf("%s: busy fractions %v, want p2p's %v", m, res.GPUComputeBusy, want)
		}
	}
}

func TestCutPointsChainNetwork(t *testing.T) {
	d, _ := models.ByName("alexnet")
	cuts := d.Net.CutPoints()
	// A purely sequential network can be cut after almost every node.
	if len(cuts) < 15 {
		t.Fatalf("AlexNet cut points = %d, want many (sequential net)", len(cuts))
	}
	nodes := d.Net.Nodes()
	for _, c := range cuts {
		if c < 0 || c >= len(nodes)-1 {
			t.Fatalf("cut %d out of range", c)
		}
	}
}

func TestCutPointsRespectBranches(t *testing.T) {
	d, _ := models.ByName("googlenet")
	cuts := d.Net.CutPoints()
	if len(cuts) == 0 {
		t.Fatal("GoogLeNet should have cut points between modules")
	}
	// No cut may land strictly inside an inception module: verify by
	// checking that from each cut, the next node's inputs all come from at
	// or before the cut.
	nodes := d.Net.Nodes()
	index := map[*dnn.Node]int{}
	for i, nd := range nodes {
		index[nd] = i
	}
	for _, c := range cuts {
		for i := c + 1; i < len(nodes); i++ {
			for _, in := range nodes[i].Inputs {
				if index[in] <= c {
					// Inputs crossing the cut must come from the cut node
					// itself (the single live tensor).
					if index[in] != c {
						t.Fatalf("cut %d severed edge %s->%s", c, in.Name, nodes[i].Name)
					}
				}
			}
			// Only the immediate successors need checking for this cut.
			break
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	d, _ := models.ByName("resnet")
	flops := make([]float64, len(d.Net.Nodes()))
	for i, nd := range d.Net.Nodes() {
		flops[i] = float64(nd.FwdFLOPs)
	}
	for _, stages := range []int{2, 4, 8} {
		part, err := partitionStages(d.Net, d.Net.CutPoints(), stages, flops)
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if len(part.bounds) != stages {
			t.Fatalf("bounds = %v", part.bounds)
		}
		nodes := d.Net.Nodes()
		if part.bounds[stages-1] != len(nodes)-1 {
			t.Fatal("last stage must end at the last node")
		}
		// Max stage cost should be well under the whole network's cost.
		var total, maxStage float64
		prev := -1
		for _, b := range part.bounds {
			var c float64
			for i := prev + 1; i <= b; i++ {
				c += float64(nodes[i].FwdFLOPs)
			}
			if c > maxStage {
				maxStage = c
			}
			total += c
			prev = b
		}
		if maxStage > 0.75*total {
			t.Errorf("stages=%d: unbalanced partition (max %.0f of %.0f)", stages, maxStage, total)
		}
	}
}

func TestModelParallelRuns(t *testing.T) {
	res := runMP(t, "alexnet", 4, 64, 0)
	if res.EpochTime <= 0 {
		t.Fatal("no epoch time")
	}
	// One mini-batch per iteration (not per GPU).
	if res.Iterations != 256*1024/64 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.Profile.Kernel("conv_fprop").Calls == 0 {
		t.Error("no kernels recorded")
	}
}

func TestModelParallelPipelineBeatsSingleStage(t *testing.T) {
	// With micro-batching, 4 stages should process an epoch faster than
	// one GPU (pipeline parallelism), though far below linear speedup.
	one := runQuick(t, "alexnet", 1, 64, MethodP2P)
	mp := runMP(t, "alexnet", 4, 64, 8)
	if mp.EpochTime >= one.EpochTime {
		t.Errorf("4-stage pipeline (%v) should beat 1 GPU (%v)", mp.EpochTime, one.EpochTime)
	}
	speedup := one.EpochTime.Seconds() / mp.EpochTime.Seconds()
	if speedup > 4 {
		t.Errorf("pipeline speedup %.2f cannot exceed stage count", speedup)
	}
}

// The paper's §I claim: model parallelism suits FC-heavy networks (it
// moves activations instead of AlexNet's 232MB of weights), while
// conv-heavy networks fare relatively better under data parallelism. The
// pipelined MP schedule never actually wins outright here (its bubbles and
// per-micro-batch weight re-reads are real costs), but the RELATIVE
// ranking must follow the paper: AlexNet loses least from switching to MP.
func TestMPvsDPFollowsPaperClaim(t *testing.T) {
	relMP := func(model string) float64 {
		dp := runQuick(t, model, 4, 64, MethodP2P)
		mp := runMP(t, model, 4, 64, 0)
		return dp.EpochTime.Seconds() / mp.EpochTime.Seconds() // >1: MP wins
	}
	alex := relMP("alexnet")   // FC-heavy
	goog := relMP("googlenet") // conv-heavy
	res := relMP("resnet")     // conv-heavy
	if alex <= goog || alex <= res {
		t.Errorf("MP should be relatively best for AlexNet (%.2f) vs GoogLeNet (%.2f), ResNet (%.2f)",
			alex, goog, res)
	}
}

func TestModelParallelMemoryPerStage(t *testing.T) {
	cfg := quickCfg(t, "inception-v3", 4, 64, MethodP2P)
	cfg.Parallelism = ModelParallel
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp := quickCfg(t, "inception-v3", 4, 64, MethodP2P)
	trDP, err := New(dp)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Memory().Worker() >= trDP.Memory().Worker() {
		t.Error("model-parallel per-GPU memory should be below data-parallel")
	}
	if tr.Memory().RootExtra != 0 {
		t.Error("model parallelism has no aggregation premium")
	}
	// Model parallelism should therefore admit batch sizes data
	// parallelism cannot (paper §V-D calls for exactly such changes).
	big := quickCfg(t, "inception-v3", 4, 128, MethodP2P)
	big.Parallelism = ModelParallel
	if _, err := New(big); err != nil {
		t.Errorf("MP Inception-v3 b128 should fit: %v", err)
	}
}

func TestModelParallelSingleGPUDegenerate(t *testing.T) {
	mp := runMP(t, "lenet", 1, 16, 0)
	if mp.EpochTime <= 0 {
		t.Fatal("single-stage MP should still run")
	}
}
