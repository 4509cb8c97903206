package core

import (
	"repro/internal/train"
)

// Normalize returns the workload with its defaulted fields made explicit:
// a zero Method becomes NCCL and zero Images becomes the paper's 256K
// dataset. Run, Fingerprint, and the service result cache all canonicalize
// through this one function, so "the same workload spelled differently"
// cannot diverge between entry points — two requests that Run treats
// identically normalize to identical structs, fingerprint to the same key,
// and echo the same workload in their reports.
//
// Normalize is idempotent and leaves every other field untouched; in
// particular WeakScaling stays a flag (the dataset multiplication happens
// at simulation time, so the flag remains visible in reports).
// The fault plan canonicalizes too (pairs ordered, lists sorted, no-op
// entries dropped, a healthy plan collapsing to nil), so every spelling
// of the same degraded fabric shares one fingerprint — and the healthy
// machine has exactly one.
// Hardware and Protocol normalize to their explicit default spellings
// ("dgx1", "simple"), so the machine and protocol are always visible in
// echoed workloads and always part of the fingerprint.
func (w Workload) Normalize() Workload {
	if w.Method == "" {
		w.Method = NCCL
	}
	if w.Images == 0 {
		w.Images = train.PaperDatasetImages
	}
	if w.Hardware == "" {
		w.Hardware = train.DefaultHardware
	}
	if w.Protocol == "" {
		w.Protocol = "simple"
	}
	w.Faults = w.Faults.Normalize()
	return w
}
