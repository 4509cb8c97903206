package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/train"
)

func TestValidate(t *testing.T) {
	ok := Workload{Model: "lenet", GPUs: 2, Batch: 16}
	cases := []struct {
		name string
		mut  func(w *Workload)
		want string // substring of the error; empty = valid
	}{
		{"valid", func(w *Workload) {}, ""},
		{"valid zero method", func(w *Workload) { w.Method = "" }, ""},
		{"valid local method", func(w *Workload) { w.Method = "local" }, ""},
		{"no model", func(w *Workload) { w.Model = "" }, "no model specified"},
		{"unknown model", func(w *Workload) { w.Model = "vgg" }, `unknown model "vgg"`},
		{"zero gpus", func(w *Workload) { w.GPUs = 0 }, "GPU count 0 out of range"},
		{"nine gpus", func(w *Workload) { w.GPUs = 9 }, "GPU count 9 out of range"},
		{"zero batch", func(w *Workload) { w.Batch = 0 }, "batch size 0 must be positive"},
		{"negative batch", func(w *Workload) { w.Batch = -4 }, "batch size -4"},
		{"bad method", func(w *Workload) { w.Method = "mpi" }, `unknown method "mpi"`},
		{"negative images", func(w *Workload) { w.Images = -1 }, "images per epoch -1"},
		{"async default method", func(w *Workload) { w.Async = true }, "async SGD requires the p2p method"},
		{"async nccl", func(w *Workload) { w.Method = NCCL; w.Async = true }, "async SGD requires the p2p method"},
		{"async p2p ok", func(w *Workload) { w.Method = P2P; w.Async = true }, ""},
		{"async model parallel", func(w *Workload) {
			w.Method = P2P
			w.Async = true
			w.ModelParallel = true
		}, "async SGD supports only data parallelism"},
		{"mp and hybrid", func(w *Workload) { w.ModelParallel = true; w.HybridOWT = true }, "mutually exclusive"},
		{"hybrid p2p", func(w *Workload) { w.Method = P2P; w.HybridOWT = true }, "hybrid parallelism requires the nccl method"},
		{"hybrid default method ok", func(w *Workload) { w.Model = "alexnet"; w.HybridOWT = true }, ""},
		{"hybrid one gpu", func(w *Workload) { w.GPUs = 1; w.HybridOWT = true }, "at least 2 GPUs"},
		{"negative micro-batches", func(w *Workload) { w.ModelParallel = true; w.MicroBatches = -1 }, "micro-batch count -1"},
		{"micro-batches without mp", func(w *Workload) { w.MicroBatches = 4 }, "micro-batches apply only to model-parallel runs, not synchronous data-parallel"},
		{"micro-batches with mp ok", func(w *Workload) { w.ModelParallel = true; w.MicroBatches = 4 }, ""},
		{"negative bucket", func(w *Workload) { w.BucketKB = -1 }, "bucket size -1"},
		{"checkpointing ok", func(w *Workload) { w.Checkpointing = true }, ""},
		{"bucket ok", func(w *Workload) { w.BucketKB = 4096 }, ""},
		{"mp checkpointing", func(w *Workload) { w.ModelParallel = true; w.Checkpointing = true }, "checkpointing applies only to synchronous data-parallel runs, not model-parallel"},
		{"hybrid checkpointing", func(w *Workload) { w.HybridOWT = true; w.Checkpointing = true }, "checkpointing applies only to synchronous data-parallel runs, not hybrid-owt"},
		{"mp bucket", func(w *Workload) { w.ModelParallel = true; w.BucketKB = 4096 }, "gradient buckets apply only to synchronous data-parallel runs, not model-parallel"},
		{"hybrid bucket", func(w *Workload) { w.HybridOWT = true; w.BucketKB = 4096 }, "gradient buckets apply only to synchronous data-parallel runs, not hybrid-owt"},
		{"async checkpointing", func(w *Workload) { w.Method = P2P; w.Async = true; w.Checkpointing = true }, "checkpointing applies only to synchronous data-parallel runs, not async SGD"},
		{"async bucket", func(w *Workload) { w.Method = P2P; w.Async = true; w.BucketKB = 4096 }, "gradient buckets apply only to synchronous data-parallel runs, not async SGD"},
		{"negative trace intervals", func(w *Workload) { w.TraceIntervals = -1 }, "trace interval count -1"},
		{"images at the bound", func(w *Workload) { w.Images = train.MaxImages }, ""},
		{"images past the bound", func(w *Workload) { w.Images = train.MaxImages + 1 }, "epoch too large: 1099511627777 images per epoch"},
		{"images max int64", func(w *Workload) { w.Images = math.MaxInt64 }, "epoch too large"},
		{"weak images at the bound", func(w *Workload) { w.WeakScaling = true; w.Images = train.MaxImages / 2 }, ""},
		{"weak images past the bound", func(w *Workload) { w.WeakScaling = true; w.Images = train.MaxImages/2 + 1 }, "epoch too large: 549755813889 images per GPU on 2 GPUs"},
		{"weak images product wraps", func(w *Workload) { w.WeakScaling = true; w.GPUs = 8; w.Images = 1 << 61 }, "epoch too large: 2305843009213693952 images per epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := ok
			tc.mut(&w)
			err := w.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// Run must reject what Validate rejects, with the same text — the CLI
// and the service lean on this to agree at every entry point.
func TestRunUsesValidate(t *testing.T) {
	w := Workload{Model: "lenet", GPUs: 12, Batch: 16}
	_, runErr := Run(w)
	valErr := w.Validate()
	if runErr == nil || valErr == nil {
		t.Fatalf("Run err %v, Validate err %v; both should fail", runErr, valErr)
	}
	if runErr.Error() != valErr.Error() {
		t.Errorf("Run error %q differs from Validate error %q", runErr, valErr)
	}
}

// TestValidateModelNames checks model names against the zoo's name list
// without building any network, keeping the error text every entry point
// prints.
func TestValidateModelNames(t *testing.T) {
	for _, tc := range []struct {
		model string
		want  string // full error text; empty = valid
	}{
		{"resnet", ""},
		{"inception-v3", ""},
		{"vgg", `core: unknown model "vgg" (available: lenet, alexnet, resnet, googlenet, inception-v3)`},
		{"ResNet", `core: unknown model "ResNet" (available: lenet, alexnet, resnet, googlenet, inception-v3)`},
		{"", "core: no model specified (available: lenet, alexnet, resnet, googlenet, inception-v3)"},
	} {
		w := Workload{Model: tc.model, GPUs: 2, Batch: 16}
		err := w.Validate()
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("model %q: Validate() = %v, want %q", tc.model, err, tc.want)
		}
	}
	// Building ResNet-50 takes thousands of allocations; a name check a
	// handful.
	w := Workload{Model: "resnet", GPUs: 2, Batch: 16}
	allocs := testing.AllocsPerRun(5, func() {
		models.ResetCache()
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Errorf("Validate allocates %.0f times per call; it should not build the model", allocs)
	}
}

// Validate and train.New reject the same configurations with the same
// rule text, over the schedule flags, methods, GPU counts, micro-batch
// counts, checkpointing and buckets. Both read the schedule rules from
// train's capability table. Model-parallel with hybrid-owt is left out:
// a train.Config spells one parallelism.
func TestValidateAgreesWithTrainNew(t *testing.T) {
	rule := func(err error, prefix string) string {
		if err == nil {
			return "accepted"
		}
		return strings.TrimPrefix(err.Error(), prefix)
	}
	for flags := 0; flags < 8; flags++ {
		async, mp, hybrid := flags&1 != 0, flags&2 != 0, flags&4 != 0
		if mp && hybrid {
			continue
		}
		for _, m := range []Method{"", P2P, NCCL, "local"} {
			for _, gpus := range []int{1, 2} {
				for _, micro := range []int{-1, 0, 3} {
					for _, ckpt := range []bool{false, true} {
						for _, bucket := range []int{0, 4096} {
							w := Workload{Model: "lenet", GPUs: gpus, Batch: 16, Method: m,
								Async: async, ModelParallel: mp, HybridOWT: hybrid,
								MicroBatches: micro, Checkpointing: ckpt, BucketKB: bucket}
							cfg, err := trainConfig(w.Normalize())
							if err != nil {
								t.Fatal(err)
							}
							_, trainErr := train.New(cfg)
							if got, want := rule(w.Validate(), "core: "), rule(trainErr, "train: "); got != want {
								t.Errorf("%+v: Validate: %s; train.New: %s", w, got, want)
							}
						}
					}
				}
			}
		}
	}
}
