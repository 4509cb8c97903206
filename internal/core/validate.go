package core

import (
	"fmt"
	"slices"
	"strings"

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
	case "", P2P, NCCL, train.MethodLocal:
	default:
		return fmt.Errorf("core: unknown method %q (p2p, nccl, or local)", w.Method)
	}
	if w.Images < 0 {
		return fmt.Errorf("core: images per epoch %d must not be negative", w.Images)
	}
	if w.Images > train.MaxImages {
		return fmt.Errorf("core: %w: %d images per epoch, at most %d", train.ErrEpochTooLarge, w.Images, train.MaxImages)
	}
	// Weak scaling trains on Images per GPU; the product is the epoch.
	if w.WeakScaling && w.Images > train.MaxImages/int64(w.GPUs) {
		return fmt.Errorf("core: %w: %d images per GPU on %d GPUs, at most %d in all",
			train.ErrEpochTooLarge, w.Images, w.GPUs, train.MaxImages)
	}
	// The flags spell one schedule, whose rules are the capability
	// table's; async SGD with either parallelism is the table's error.
	if w.ModelParallel && w.HybridOWT && !w.Async {
		return fmt.Errorf("core: model-parallel and hybrid-owt are mutually exclusive")
	}
	cfg := w.config()
	if err := cfg.CheckSchedule(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if w.BucketKB < 0 {
		return fmt.Errorf("core: bucket size %d KiB must not be negative", w.BucketKB)
	}
	if w.TraceIntervals < 0 {
		return fmt.Errorf("core: trace interval count %d must not be negative", w.TraceIntervals)
	}
	if _, err := w.nccl(); err != nil {
		return err
	}
	if err := w.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := w.Faults.CheckHardware(w.Hardware); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// nccl parses the workload's collective selection: the one place the
// protocol spelling is read, and the one check that a pinned tree does
// not contradict "auto", which picks the algorithm per collective.
func (w Workload) nccl() (nccl.Selection, error) {
	p, err := nccl.ParseProtocol(w.Protocol)
	if err != nil {
		return nccl.Selection{}, fmt.Errorf("core: %w", err)
	}
	sel := nccl.Selection{Protocol: p}
	if w.NCCLTree {
		if p == nccl.ProtoAuto {
			return nccl.Selection{}, fmt.Errorf("core: protocol \"auto\" picks the algorithm per collective; clear ncclTree")
		}
		sel.Algorithm = nccl.AlgoTree
	}
	return sel, nil
}
