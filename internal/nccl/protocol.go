package nccl

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// NCCL's transfer protocols ("Demystifying NCCL", PAPERS.md). The paper's
// 2018 measurements correspond to the Simple protocol; LL and LL128 trade
// effective bandwidth for lower per-step synchronization cost, which is
// why real NCCL picks them for small messages.
//
// The cost model per protocol is a (bandwidth fraction, step latency)
// pair applied to the ring/tree closed form:
//
//   - Simple moves payload-only cachelines at full link bandwidth but
//     synchronizes neighbors with memory fences (the full stepLatency).
//   - LL (low latency) packs 4 bytes of data with a 4-byte flag in each
//     8-byte word: half the effective bandwidth, but the inline flags
//     replace fences (stepLatency/4).
//   - LL128 packs 120 data bytes per 128-byte line (93.75% bandwidth) at
//     near-LL latency (stepLatency/2), but relies on 128-byte atomic
//     write visibility, which only NVLink fabrics guarantee; on PCIe
//     rings the communicator falls back to Simple.
type Protocol int

// Protocols. The zero value is Simple — the paper-era behavior — so a
// zero Selection reproduces the original model exactly.
const (
	ProtoSimple Protocol = iota
	ProtoLL
	ProtoLL128
	// ProtoAuto resolves per collective: AutoSelect picks protocol and
	// ring-vs-tree algorithm from the message size and fabric.
	ProtoAuto
)

// String names the protocol as the API spells it.
func (p Protocol) String() string {
	switch p {
	case ProtoLL:
		return "ll"
	case ProtoLL128:
		return "ll128"
	case ProtoAuto:
		return "auto"
	}
	return "simple"
}

// ParseProtocol maps the API spelling to a Protocol. The empty string is
// the Simple default.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "simple":
		return ProtoSimple, nil
	case "ll":
		return ProtoLL, nil
	case "ll128":
		return ProtoLL128, nil
	case "auto":
		return ProtoAuto, nil
	}
	return ProtoSimple, fmt.Errorf("nccl: unknown protocol %q (want simple, ll, ll128 or auto)", s)
}

// ProtocolNames lists the accepted protocol spellings in display order.
func ProtocolNames() []string {
	return []string{"simple", "ll", "ll128", "auto"}
}

// bwFraction is the fraction of link bandwidth the protocol's line format
// leaves for payload.
func (p Protocol) bwFraction() float64 {
	switch p {
	case ProtoLL:
		return 0.5 // 4B data + 4B flag per 8B word
	case ProtoLL128:
		return 120.0 / 128.0 // 120B data per 128B line
	}
	return 1
}

// stepLatency is the per-step synchronization cost under the protocol,
// derived from the Simple-protocol base latency.
func (p Protocol) stepLatency(base time.Duration) time.Duration {
	switch p {
	case ProtoLL:
		return base / 4
	case ProtoLL128:
		return base / 2
	}
	return base
}

// Auto-selection thresholds: flag-synchronized LL wins while the latency
// term dominates, LL128 covers the mid-range on NVLink, and Simple's full
// bandwidth wins for bulk transfers. Trees win at small sizes for their
// O(log N) step count; rings win at large sizes for bandwidth optimality.
const (
	autoLLCutoff    = 64 * units.KB
	autoLL128Cutoff = 4 * units.MB
)

// AutoSelect picks (algorithm, protocol) for one collective the way NCCL's
// tuner does: by message size per rank and whether the communicator's
// rings run over NVLink. ranks is accepted for signature stability (the
// real tuner also weighs rank count; this model's thresholds already fold
// the DGX-scale rank counts in).
func AutoSelect(size units.Bytes, ranks int, nvlink bool) (Algorithm, Protocol) {
	_ = ranks
	if size <= autoLLCutoff {
		return AlgoTree, ProtoLL
	}
	if size <= autoLL128Cutoff && nvlink {
		return AlgoTree, ProtoLL128
	}
	return AlgoRing, ProtoSimple
}
