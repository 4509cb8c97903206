package train

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// Model parallelism (the alternative the paper's introduction contrasts
// with data parallelism): the network's layers are partitioned into
// contiguous stages, one per GPU; activations — not weights — cross GPUs.
// Each mini-batch is split into micro-batches and pipelined through the
// stages (fill, steady, drain), flushing at the mini-batch boundary so
// weight updates remain exact (GPipe-style schedule). Updates are local to
// the stage that owns the weights: no gradient exchange at all, which is
// why the approach suits weight-heavy, FC-dominated networks.

// stagePartition maps contiguous node ranges to devices.
type stagePartition struct {
	// bounds[i] is the index (into Nodes()) of the last node of stage i.
	bounds []int
}

// partitionStages splits the network into `stages` contiguous segments at
// its cut points (cuts, from dnn.Network.CutPoints), minimizing the
// maximum per-stage cost (balanced pipeline) via dynamic programming over
// the cut list. cost[i] is node i's estimated execution time.
func partitionStages(net *dnn.Network, cuts []int, stages int, cost []float64) (stagePartition, error) {
	nodes := net.Nodes()
	if stages <= 1 {
		return stagePartition{bounds: []int{len(nodes) - 1}}, nil
	}
	if len(cuts) < stages-1 {
		return stagePartition{}, fmt.Errorf(
			"train: %s has only %d clean cut points, cannot form %d stages",
			net.Name, len(cuts), stages)
	}
	// Prefix sums for O(1) segment cost.
	prefix := make([]float64, len(nodes)+1)
	for i := range nodes {
		prefix[i+1] = prefix[i] + cost[i]
	}
	segCost := func(from, to int) float64 { return prefix[to+1] - prefix[from] }

	// boundaries = chosen cut list positions; DP over (cut index, stage).
	ends := append(append([]int(nil), cuts...), len(nodes)-1)
	const inf = 1e300
	// best[k][s] = minimal max-stage-cost using ends[k] as the last node of
	// stage s (0-based). Track predecessor for reconstruction.
	best := make([][]float64, len(ends))
	prev := make([][]int, len(ends))
	for k := range ends {
		best[k] = make([]float64, stages)
		prev[k] = make([]int, stages)
		for s := range best[k] {
			best[k][s] = inf
			prev[k][s] = -1
		}
		best[k][0] = segCost(0, ends[k])
	}
	for s := 1; s < stages; s++ {
		for k := range ends {
			for j := 0; j < k; j++ {
				if best[j][s-1] == inf {
					continue
				}
				c := segCost(ends[j]+1, ends[k])
				m := best[j][s-1]
				if c > m {
					m = c
				}
				if m < best[k][s] {
					best[k][s] = m
					prev[k][s] = j
				}
			}
		}
	}
	last := len(ends) - 1
	if best[last][stages-1] == inf {
		return stagePartition{}, fmt.Errorf("train: no %d-stage partition of %s", stages, net.Name)
	}
	bounds := make([]int, stages)
	k := last
	for s := stages - 1; s >= 0; s-- {
		bounds[s] = ends[k]
		k = prev[k][s]
	}
	return stagePartition{bounds: bounds}, nil
}

// beginModelParallel builds the pipelined model-parallel schedule. Its
// setup is framework startup alone (no communicator, no model
// broadcast), and an iteration consumes one mini-batch, not one per GPU.
func (t *Trainer) beginModelParallel() (time.Duration, iteration, error) {
	stages := t.cfg.GPUs
	micro := t.cfg.MicroBatches
	if micro <= 0 {
		// Default: enough micro-batches to fill the pipeline, but never so
		// many that a micro-batch drops below ~4 images — tiny micro-batches
		// re-read FC weights at negligible occupancy and drown the pipeline
		// in per-kernel overheads.
		micro = 2 * stages
		if cap := t.cfg.Batch / 4; micro > cap {
			micro = cap
		}
		if micro < 1 {
			micro = 1
		}
	}
	if micro > t.cfg.Batch {
		micro = t.cfg.Batch
	}
	microBatch := t.cfg.Batch / micro
	if microBatch == 0 {
		microBatch = 1
		micro = t.cfg.Batch
	}
	// Every device's kernels at the micro-batch. Stages are balanced by
	// the root's estimate of each node's time (FLOPs alone would overload
	// whichever stage holds the memory-bound FC layers).
	tables := tablesFor(t.cfg, microBatch, t.tables[0].plan, t.rt, t.devs, t.stragglers)
	nodes := t.cfg.Model.Net.Nodes()
	cost := make([]float64, len(nodes))
	for i := range cost {
		cost[i] = tables[0].nodeCost(i)
	}
	part, err := partitionStages(t.cfg.Model.Net, t.tables[0].plan.cutPoints, stages, cost)
	if err != nil {
		return 0, nil, err
	}

	// Stage s runs its node range on devs[s]: one slice of each pass of
	// that device's table.
	type stageWork struct {
		dev      topology.NodeID
		fwd      cuda.Run
		bwd      cuda.Run
		boundary units.Bytes
		weights  units.Bytes
		update   time.Duration // the stage's local weight-update kernel
	}
	work := make([]stageWork, stages)
	from := 0
	for s := range work {
		w, tab, to := &work[s], tables[s], part.bounds[s]+1
		w.dev = t.devs[s]
		w.fwd, w.bwd = tab.fwdSlice(from, to), tab.bwdSlice(from, to)
		if w.weights = tab.plan.weights(from, to); w.weights > 0 {
			w.update = t.rt.Device(w.dev).Spec.KernelDuration(sgdUpdateCost(w.weights))
		}
		if s < stages-1 {
			w.boundary = units.BytesOf(nodes[part.bounds[s]].Out.Elems()*int64(microBatch), units.Float32Size)
		}
		from = to
	}

	// One mini-batch (= one iteration): GPipe fill/steady/drain of micro
	// forward passes, then the reverse for backward, then local updates.
	iterate := func(start time.Duration) (iterTimes, error) {
		t.passes += int64(stages)
		host := make([]time.Duration, stages)
		actReady := make([][]time.Duration, stages) // [stage][micro] input ready
		for s := range actReady {
			actReady[s] = make([]time.Duration, micro)
			host[s] = start
			for j := range actReady[s] {
				actReady[s][j] = start
			}
		}
		var fpEnd time.Duration
		fwdOut := make([][]time.Duration, stages)
		for s := range fwdOut {
			fwdOut[s] = make([]time.Duration, micro)
		}
		for j := 0; j < micro; j++ {
			for s := 0; s < stages; s++ {
				stream := &t.compute[s]
				stream.WaitEvent(actReady[s][j])
				var kEnd time.Duration
				host[s], kEnd = stream.LaunchRun(profiler.StageFP, work[s].fwd, host[s])
				fwdOut[s][j] = kEnd
				if s+1 < stages {
					_, arrive, err := t.rt.MemcpyPeer(work[s+1].dev, work[s].dev,
						work[s].boundary, profiler.StageFP, kEnd, kEnd)
					if err != nil {
						return iterTimes{}, err
					}
					actReady[s+1][j] = arrive
				} else if kEnd > fpEnd {
					fpEnd = kEnd
				}
			}
		}
		// Backward: micro-batches drain from the last stage to the first.
		gradReady := make([][]time.Duration, stages)
		for s := range gradReady {
			gradReady[s] = make([]time.Duration, micro)
			for j := range gradReady[s] {
				gradReady[s][j] = fwdOut[s][j]
			}
		}
		var bpEnd time.Duration
		for j := 0; j < micro; j++ {
			for s := stages - 1; s >= 0; s-- {
				stream := &t.compute[s]
				stream.WaitEvent(gradReady[s][j])
				var kEnd time.Duration
				host[s], kEnd = stream.LaunchRun(profiler.StageBP, work[s].bwd, host[s])
				if s > 0 {
					_, arrive, err := t.rt.MemcpyPeer(work[s-1].dev, work[s].dev,
						work[s].boundary, profiler.StageBP, kEnd, kEnd)
					if err != nil {
						return iterTimes{}, err
					}
					if arrive > gradReady[s-1][j] {
						gradReady[s-1][j] = arrive
					}
				}
				if kEnd > bpEnd {
					bpEnd = kEnd
				}
			}
		}
		// Local weight updates per stage (no inter-GPU exchange).
		barrier := bpEnd
		for s := 0; s < stages; s++ {
			if work[s].weights == 0 {
				continue
			}
			_, end := t.rt.Device(work[s].dev).BookCommKernel(bpEnd, work[s].update)
			if end > barrier {
				barrier = end
			}
		}
		for s := 0; s < stages; s++ {
			w := t.rt.HostWait(work[s].dev, profiler.StageWU, host[s], barrier)
			if w > barrier {
				barrier = w
			}
		}
		return iterTimes{start: start, fpEnd: fpEnd, bpEnd: bpEnd, barrier: barrier, steady: barrier - start, floor: barrier}, nil
	}
	return t.setupTime(), iterate, nil
}
