package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/report"
)

// fleetMix is the generated PAI-style trace every fleet cell shares: the
// sweep varies the fleet and the policy, never the offered load. 150
// arrivals at a 6s mean interarrival offers roughly 70% utilization to a
// healthy 2-node fleet — loaded enough that placement quality shows up
// in the tail, not so loaded that every policy drowns identically.
func fleetMix() *cluster.Mix {
	return &cluster.Mix{Jobs: 150, MeanInterarrival: 6 * time.Second}
}

// sickNode is the degraded node the severity ladder injects: GPU0
// NVLink-isolated (its four bricks failed, so every multi-GPU NCCL job
// placed there routes around the hole) and GPU0 straggling 2.5x (so
// even single-GPU jobs feel the node). It is the resilience ladder's
// worst single-node case, reused as a fleet member.
func sickNode() *faults.Plan {
	return &faults.Plan{
		FailedLinks: []faults.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}, {A: 0, B: 6}},
		Stragglers:  []faults.Straggler{{GPU: 0, Slowdown: 2.5}},
	}
}

// fleetSeverities builds the fleet's node list per degradation level.
// The sick nodes come first — that is the point: first-fit's scan order
// keeps feeding them, a fault-aware policy steers around them.
func fleetSeverities() []struct {
	name  string
	nodes func(n int) []cluster.NodeSpec
} {
	return []struct {
		name  string
		nodes func(n int) []cluster.NodeSpec
	}{
		{"healthy", func(n int) []cluster.NodeSpec {
			return []cluster.NodeSpec{{Count: n}}
		}},
		{"one node sick", func(n int) []cluster.NodeSpec {
			return []cluster.NodeSpec{{Faults: sickNode()}, {Count: n - 1}}
		}},
		{"half fleet sick", func(n int) []cluster.NodeSpec {
			return []cluster.NodeSpec{{Count: n / 2, Faults: sickNode()}, {Count: n - n/2}}
		}},
	}
}

// Fleet sweeps placement policy x fleet size x fault severity over one
// fixed PAI-style job trace and tables the cluster-level outcomes. It is
// the multi-tenant counterpart of the resilience ladder: resilience asks
// what one fault does to one job; this asks what a fleet's scheduler can
// do about it when the fault is one node among many. The second table
// compares queue disciplines (FIFO vs SJF) on the degraded fleet, where
// head-of-line cost is highest.
func Fleet(opt Options) ([]*report.Table, error) {
	opt.normalize()

	fleets := []int{2, 4}
	severities := fleetSeverities()
	policies := cluster.Policies()

	type cell struct {
		fleet, sev int
		policy     string
		queue      string
	}
	var cells []cell
	for _, f := range fleets {
		for si := range severities {
			if f/2 <= 1 && si == 2 {
				// On a 2-node fleet "half sick" is "one node sick" again.
				continue
			}
			for _, p := range policies {
				cells = append(cells, cell{fleet: f, sev: si, policy: p, queue: cluster.QueueFIFO})
			}
		}
	}
	// Queue-discipline arm: FIFO vs SJF under first-fit on the degraded
	// 2-node fleet.
	qdBase := len(cells)
	for _, q := range cluster.Queues() {
		cells = append(cells, cell{fleet: 2, sev: 1, policy: cluster.PolicyFirstFit, queue: q})
	}

	// Every cell schedules the same trace, so generate it once.
	gen := cluster.Spec{Mix: fleetMix(), Seed: opt.Seed}.Normalize()
	jobs := cluster.GenerateTrace(*gen.Mix, gen.Seed)
	results, err := parMap(opt, len(cells), func(i int) (*cluster.Result, error) {
		c := cells[i]
		return cluster.Simulate(context.Background(), cluster.Spec{
			Nodes:  severities[c.sev].nodes(c.fleet),
			Jobs:   jobs,
			Policy: c.policy,
			Queue:  c.queue,
			Seed:   opt.Seed,
		})
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("Fleet scheduling: %d PAI-style jobs, policy x fleet size x fault severity (seed %d)", fleetMix().Jobs, opt.Seed),
		"Fleet", "Severity", "Policy", "p50 JCT", "p99 JCT", "p99 queue", "Util (%)", "Makespan", "p99 vs first-fit")
	for i, c := range cells[:qdBase] {
		r := results[i]
		// The first-fit row of the same (fleet, severity) group anchors
		// the ratio: policies are only comparable on identical inputs.
		var base *cluster.Result
		for j, cj := range cells[:qdBase] {
			if cj.fleet == c.fleet && cj.sev == c.sev && cj.policy == cluster.PolicyFirstFit {
				base = results[j]
				break
			}
		}
		t.AddRow(
			fmt.Sprintf("%d nodes", c.fleet),
			severities[c.sev].name,
			c.policy,
			fmtDur(r.JCT.P50),
			fmtDur(r.JCT.P99),
			fmtDur(r.QueueDelay.P99),
			report.F(100*r.FleetUtilization, 1),
			fmtDur(r.Makespan),
			fmt.Sprintf("%.2fx", float64(r.JCT.P99)/float64(base.JCT.P99)))
	}
	t.AddNote("sick node = GPU0 NVLink-isolated + 2.5x straggler, listed first in the fleet; first-fit keeps feeding it, frag-aware prices its degradation and steers jobs onto healthy fabric")
	t.AddNote(fmt.Sprintf("each cell re-schedules the same %d-job trace; %d distinct workloads priced through the simulator per cell at most — repetition rides the fingerprint memo",
		fleetMix().Jobs, results[0].DistinctServices))

	qt := report.NewTable(
		"Queue discipline on the degraded 2-node fleet (first-fit placement)",
		"Queue", "Mean JCT", "p50 JCT", "p99 JCT", "p99 queue", "Makespan")
	for i, c := range cells[qdBase:] {
		r := results[qdBase+i]
		qt.AddRow(c.queue,
			fmtDur(r.JCT.Mean),
			fmtDur(r.JCT.P50),
			fmtDur(r.JCT.P99),
			fmtDur(r.QueueDelay.P99),
			fmtDur(r.Makespan))
	}
	qt.AddNote("SJF ranks pending jobs by their healthy-machine service estimate; with the PAI mix's heavy tail it collapses the median at a small cost to the largest jobs")
	return []*report.Table{t, qt}, nil
}
