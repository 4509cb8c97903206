package core

import (
	"testing"

	"repro/internal/train"
)

func TestNormalizeDefaults(t *testing.T) {
	n := Workload{Model: "lenet", GPUs: 2, Batch: 16}.Normalize()
	if n.Method != NCCL {
		t.Errorf("Method = %q, want nccl", n.Method)
	}
	if n.Images != train.PaperDatasetImages {
		t.Errorf("Images = %d, want the paper's %d", n.Images, train.PaperDatasetImages)
	}
}

func TestNormalizePreservesExplicitValues(t *testing.T) {
	w := Workload{Model: "resnet", GPUs: 4, Batch: 32, Method: P2P, Images: 1234, NCCLTree: true, Hardware: "dgx1", Protocol: "simple"}
	if n := w.Normalize(); n != w {
		t.Errorf("Normalize changed an already-explicit workload: %+v -> %+v", w, n)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	n := Workload{Model: "lenet", GPUs: 2, Batch: 16}.Normalize()
	if n2 := n.Normalize(); n2 != n {
		t.Errorf("Normalize not idempotent: %+v -> %+v", n, n2)
	}
}

// TestFingerprintNormalizeAgreement pins the contract the service cache
// and the artifact cache both lean on: a workload and its normalized
// form hash identically, so spelled-out defaults and omitted ones share
// one cache slot.
func TestFingerprintNormalizeAgreement(t *testing.T) {
	for _, w := range []Workload{
		{Model: "lenet", GPUs: 2, Batch: 16},
		{Model: "resnet", GPUs: 8, Batch: 64, Method: P2P},
		{Model: "alexnet", GPUs: 4, Batch: 32, WeakScaling: true},
	} {
		if got, want := w.Fingerprint(), w.Normalize().Fingerprint(); got != want {
			t.Errorf("Fingerprint(%+v) = %s, but normalized = %s", w, got, want)
		}
	}
}
