package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/models"
	"repro/internal/nccl"
	"repro/internal/train"
)

// Validate checks a workload before it is run. The CLI (cmd/dgxsim) and
// the service (internal/service, cmd/dgxsimd) both call it, so a bad
// configuration is rejected with the same error text at every entry
// point. A zero Method is accepted (Run defaults it to NCCL).
func (w Workload) Validate() error {
	names := models.Names()
	if w.Model == "" {
		return fmt.Errorf("core: no model specified (available: %s)", strings.Join(names, ", "))
	}
	// A name check, not models.ByName: building the network just to
	// validate its name cost a whole zoo build on every cold request.
	if !slices.Contains(names, w.Model) {
		return fmt.Errorf("core: unknown model %q (available: %s)", w.Model, strings.Join(names, ", "))
	}
	m, err := train.MachineByName(w.Hardware)
	if err != nil {
		return fmt.Errorf("core: unknown hardware %q (available: %s)", w.Hardware, strings.Join(train.MachineNames(), ", "))
	}
	if w.GPUs < 1 || w.GPUs > m.GPUs {
		return fmt.Errorf("core: GPU count %d out of range (%s has 1..%d)", w.GPUs, m.Title, m.GPUs)
	}
	if w.Batch <= 0 {
		return fmt.Errorf("core: batch size %d must be positive", w.Batch)
	}
	switch w.Method {
	case "", P2P, NCCL, kvstore.MethodLocal:
	default:
		return fmt.Errorf("core: unknown method %q (p2p, nccl, or local)", w.Method)
	}
	if w.Images < 0 {
		return fmt.Errorf("core: images per epoch %d must not be negative", w.Images)
	}
	if w.Async && w.Method != P2P {
		return fmt.Errorf("core: async SGD requires the p2p method, got %q", w.methodOrDefault())
	}
	if w.Async && (w.ModelParallel || w.HybridOWT) {
		return fmt.Errorf("core: async SGD supports only data parallelism")
	}
	if w.ModelParallel && w.HybridOWT {
		return fmt.Errorf("core: model-parallel and hybrid-owt are mutually exclusive")
	}
	if w.HybridOWT && w.methodOrDefault() != NCCL {
		return fmt.Errorf("core: hybrid parallelism requires the nccl method, got %q", w.Method)
	}
	if w.HybridOWT && w.GPUs < 2 {
		return fmt.Errorf("core: hybrid parallelism needs at least 2 GPUs")
	}
	if w.MicroBatches < 0 {
		return fmt.Errorf("core: micro-batch count %d must not be negative", w.MicroBatches)
	}
	if w.MicroBatches > 0 && !w.ModelParallel {
		return fmt.Errorf("core: micro-batches apply only to model-parallel runs")
	}
	if w.BucketKB < 0 {
		return fmt.Errorf("core: bucket size %d KiB must not be negative", w.BucketKB)
	}
	if w.TraceIntervals < 0 {
		return fmt.Errorf("core: trace interval count %d must not be negative", w.TraceIntervals)
	}
	if _, err := nccl.ParseProtocol(w.Protocol); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if w.NCCLTree && w.Protocol == "auto" {
		return fmt.Errorf("core: protocol \"auto\" picks the algorithm per collective; clear ncclTree")
	}
	if err := w.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := w.Faults.CheckHardware(w.Hardware); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// methodOrDefault resolves the zero Method the way Run does.
func (w Workload) methodOrDefault() Method {
	if w.Method == "" {
		return NCCL
	}
	return w.Method
}
