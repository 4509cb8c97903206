// Package optimize searches a configuration space for the Pareto
// frontier of a training objective against GPU cost. Given one model
// and an objective — minimize epoch time, or maximize throughput per
// GPU — it expands GPU count × batch size × communication method ×
// fault plan into candidate workloads, reads each candidate's simulated
// report, and keeps the non-dominated set: every point on the frontier
// is the best achievable objective at its GPU budget, and spending more
// GPUs than a frontier point only helps if it strictly improves the
// objective. An optional memory cap (GiB per GPU, root-GPU usage) drops
// configurations that would not fit the device before dominance is
// judged.
//
// The package is pure search logic: expansion and dominance, no
// simulation and no HTTP. The service's /v1/optimize endpoint and the
// experiments CLI both drive it with reports obtained elsewhere, so the
// frontier for a given candidate/report set is deterministic — same
// inputs, same points, same order.
package optimize

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
)

// Objective names what the search optimizes at each GPU budget.
type Objective string

const (
	// MinEpochTime minimizes the simulated epoch wall time.
	MinEpochTime Objective = "min_epoch_time"
	// MaxThroughputPerGPU maximizes images/second divided by GPU count —
	// the scaling-efficiency view: more GPUs only stay on the frontier
	// while per-GPU throughput holds up.
	MaxThroughputPerGPU Objective = "max_throughput_per_gpu"
)

// ParseObjective resolves the wire spelling; empty means MinEpochTime.
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case "", MinEpochTime:
		return MinEpochTime, nil
	case MaxThroughputPerGPU:
		return MaxThroughputPerGPU, nil
	}
	return "", fmt.Errorf("unknown objective %q (want %q or %q)", s, MinEpochTime, MaxThroughputPerGPU)
}

// Value extracts the objective's metric from a report.
func (o Objective) Value(r *core.Report) float64 {
	switch o {
	case MaxThroughputPerGPU:
		g := r.Workload.GPUs
		if g < 1 {
			g = 1
		}
		return r.Throughput / float64(g)
	default:
		return float64(r.EpochTime.Nanoseconds())
	}
}

// Better reports whether objective value a beats b.
func (o Objective) Better(a, b float64) bool {
	if o == MaxThroughputPerGPU {
		return a > b
	}
	return a < b
}

// Space is the searched region. Empty axes take defaults: every DGX-1
// GPU count (1..8), both communication methods, the base workload's
// batch size, hardware, protocol, and fault plan. Note GPU counts above
// the smallest machine's capacity are only valid if every hardware entry
// fits them (validation rejects the contradictory candidates).
type Space struct {
	GPUs    []int         `json:"gpus,omitempty"`
	Batches []int         `json:"batches,omitempty"`
	Methods []core.Method `json:"methods,omitempty"`
	// Hardware searches machine generations ("dgx1", "dgx2", ...); each
	// candidate resolves to that machine's topology and GPU spec.
	Hardware []string `json:"hardware,omitempty"`
	// Protocols searches NCCL transfer protocols ("simple", "ll",
	// "ll128", "auto").
	Protocols []string       `json:"protocols,omitempty"`
	Faults    []*faults.Plan `json:"faults,omitempty"`
}

// filled fills empty axes from the base workload.
func (sp Space) filled(base core.Workload) Space {
	if len(sp.GPUs) == 0 {
		sp.GPUs = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if len(sp.Batches) == 0 {
		sp.Batches = []int{base.Batch}
	}
	if len(sp.Methods) == 0 {
		sp.Methods = []core.Method{core.P2P, core.NCCL}
	}
	if len(sp.Hardware) == 0 {
		sp.Hardware = []string{base.Hardware}
	}
	if len(sp.Protocols) == 0 {
		sp.Protocols = []string{base.Protocol}
	}
	if len(sp.Faults) == 0 {
		sp.Faults = []*faults.Plan{base.Faults}
	}
	return sp
}

// Candidates expands the space over the base workload in deterministic
// order (gpus → batches → methods → hardware → protocols → faults, each
// axis in the order given), so the same request always searches the same
// sequence. The hardware and protocol axes nest inside methods, so a
// request that leaves them empty searches the exact candidate sequence
// earlier releases did.
func Candidates(base core.Workload, sp Space) []core.Workload {
	sp = sp.filled(base)
	out := make([]core.Workload, 0,
		len(sp.GPUs)*len(sp.Batches)*len(sp.Methods)*len(sp.Hardware)*len(sp.Protocols)*len(sp.Faults))
	for _, g := range sp.GPUs {
		for _, b := range sp.Batches {
			for _, m := range sp.Methods {
				for _, hw := range sp.Hardware {
					for _, proto := range sp.Protocols {
						for _, f := range sp.Faults {
							w := base
							w.GPUs, w.Batch, w.Method, w.Faults = g, b, m, f
							w.Hardware, w.Protocol = hw, proto
							out = append(out, w)
						}
					}
				}
			}
		}
	}
	return out
}

// Point is one frontier entry with its provenance: the exact workload
// that earned it, the cache fingerprint that run is stored under, and
// the measured metrics the dominance judgment used.
type Point struct {
	Workload    core.Workload `json:"workload"`
	Fingerprint string        `json:"fingerprint"`
	// Objective is the point's value of the searched objective
	// (nanoseconds for min_epoch_time, images/s/GPU for
	// max_throughput_per_gpu).
	Objective        float64 `json:"objective"`
	EpochTimeNs      int64   `json:"epochTimeNs"`
	ImagesPerSecond  float64 `json:"imagesPerSecond"`
	ThroughputPerGPU float64 `json:"throughputPerGpu"`
	// MemoryGiB is the root GPU's usage — the machine's binding figure.
	MemoryGiB float64 `json:"memoryGiB"`
}

// Result is a completed search: the frontier plus accounting for every
// candidate that did not make it.
type Result struct {
	Objective Objective `json:"objective"`
	// Candidates is how many configurations were searched.
	Candidates int `json:"candidates"`
	// MemoryExcluded counts candidates dropped by the memory cap before
	// dominance was judged.
	MemoryExcluded int `json:"memoryExcluded"`
	// Frontier is the non-dominated set, GPU count ascending; each point
	// strictly improves the objective over every cheaper point.
	Frontier []Point `json:"frontier"`
}

// Frontier computes the Pareto frontier of the candidates' reports.
// ws[i] must be the workload reports[i] measured; memCapGiB <= 0 means
// no cap. Dominance: a point beats another if it uses no more GPUs and
// its objective is no worse, with at least one strict. Ties (same GPU
// count, same objective) resolve to the earliest candidate, so the
// result is deterministic in candidate order.
func Frontier(ws []core.Workload, reports []*core.Report, obj Objective, memCapGiB float64) (Result, error) {
	if len(ws) != len(reports) {
		return Result{}, fmt.Errorf("optimize: %d workloads but %d reports", len(ws), len(reports))
	}
	res := Result{Objective: obj, Candidates: len(ws)}
	type cand struct {
		idx int
		p   Point
	}
	var pool []cand
	for i, r := range reports {
		if r == nil {
			return Result{}, fmt.Errorf("optimize: candidate %d has no report", i)
		}
		mem := r.Memory.Root().GiB()
		if memCapGiB > 0 && mem > memCapGiB {
			res.MemoryExcluded++
			continue
		}
		g := ws[i].GPUs
		if g < 1 {
			g = 1
		}
		pool = append(pool, cand{idx: i, p: Point{
			Workload:         ws[i],
			Fingerprint:      ws[i].Fingerprint(),
			Objective:        obj.Value(r),
			EpochTimeNs:      r.EpochTime.Nanoseconds(),
			ImagesPerSecond:  r.Throughput,
			ThroughputPerGPU: r.Throughput / float64(g),
			MemoryGiB:        mem,
		}})
	}
	// Sweep by GPU budget: cheapest first, best objective first within a
	// budget, candidate order breaking exact ties. A point survives only
	// if it strictly improves on everything cheaper — which is exactly
	// Pareto non-domination for (GPUs ↓, objective best).
	sort.SliceStable(pool, func(a, b int) bool {
		pa, pb := pool[a].p, pool[b].p
		if pa.Workload.GPUs != pb.Workload.GPUs {
			return pa.Workload.GPUs < pb.Workload.GPUs
		}
		if pa.Objective != pb.Objective {
			return obj.Better(pa.Objective, pb.Objective)
		}
		return pool[a].idx < pool[b].idx
	})
	var (
		best    float64
		haveAny bool
	)
	for _, c := range pool {
		if haveAny && !obj.Better(c.p.Objective, best) {
			continue
		}
		res.Frontier = append(res.Frontier, c.p)
		best, haveAny = c.p.Objective, true
	}
	return res, nil
}
