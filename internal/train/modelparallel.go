package train

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/gpu"
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

// stageOf returns the stage owning node index i.
func (p stagePartition) stageOf(i int) int {
	for s, b := range p.bounds {
		if i <= b {
			return s
		}
	}
	return len(p.bounds) - 1
}

// partitionStages splits the network into `stages` contiguous segments at
// valid cut points, minimizing the maximum per-stage cost (balanced
// pipeline) via dynamic programming over the cut list. cost[i] is node i's
// estimated execution time; nil falls back to forward FLOPs.
func partitionStages(net *dnn.Network, stages int, cost []float64) (stagePartition, error) {
	nodes := net.Nodes()
	if stages <= 1 {
		return stagePartition{bounds: []int{len(nodes) - 1}}, nil
	}
	cuts := net.CutPoints()
	if len(cuts) < stages-1 {
		return stagePartition{}, fmt.Errorf(
			"train: %s has only %d clean cut points, cannot form %d stages",
			net.Name, len(cuts), stages)
	}
	if cost == nil {
		cost = make([]float64, len(nodes))
		for i, nd := range nodes {
			cost[i] = float64(nd.FwdFLOPs)
		}
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

// runModelParallel simulates one epoch of pipelined model-parallel
// training and returns the standard measurements.
func (t *Trainer) runModelParallel() (*Result, error) {
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
	opts := dnn.PlanOptions{TensorCores: t.cfg.TensorCores}
	plans := t.cfg.Model.Net.NodePlans(microBatch, opts)
	nodes := t.cfg.Model.Net.Nodes()

	// Balance stages by estimated execution time of the micro-batch
	// kernels (FLOPs alone would overload whichever stage holds the
	// memory-bound FC layers).
	spec := t.rt.Device(t.devs[0]).Spec
	cost := make([]float64, len(plans))
	for i, p := range plans {
		for _, k := range p.Fwd {
			cost[i] += spec.KernelDuration(k).Seconds()
		}
		for _, k := range p.Bwd {
			cost[i] += spec.KernelDuration(k).Seconds()
		}
	}
	part, err := partitionStages(t.cfg.Model.Net, stages, cost)
	if err != nil {
		return nil, err
	}

	// Per-stage lowering: stage s runs on devs[s], so its kernels are
	// lowered for that device's spec.
	type stageWork struct {
		dev      topology.NodeID
		fwd      []cuda.Kernel
		bwd      []cuda.Kernel
		boundary units.Bytes
		weights  units.Bytes
		update   time.Duration // the stage's local weight-update kernel
	}
	work := make([]stageWork, stages)
	fwd := make([][]gpu.KernelCost, stages)
	bwd := make([][]gpu.KernelCost, stages)
	for i, p := range plans {
		s := part.stageOf(i)
		fwd[s] = append(fwd[s], p.Fwd...)
		if p.Layer != nil {
			work[s].weights += units.BytesOf(p.Layer.Params, units.Float32Size)
		}
	}
	// Backward kernels belong to the same stage, reverse order.
	for i := len(plans) - 1; i >= 0; i-- {
		s := part.stageOf(i)
		bwd[s] = append(bwd[s], plans[i].Bwd...)
	}
	for s := range work {
		work[s].dev = t.devs[s]
		spec := t.rt.Device(t.devs[s]).Spec
		work[s].fwd = t.rt.Lower(nil, spec, fwd[s])
		work[s].bwd = t.rt.Lower(nil, spec, bwd[s])
		if work[s].weights > 0 {
			work[s].update = spec.KernelDuration(sgdUpdateCost(work[s].weights))
		}
		if s < stages-1 {
			out := nodes[part.bounds[s]].Out
			work[s].boundary = units.BytesOf(out.Elems()*int64(microBatch), units.Float32Size)
		}
	}

	// One mini-batch (= one iteration): GPipe fill/steady/drain of micro
	// forward passes, then the reverse for backward, then local updates.
	runIteration := func(start time.Duration) (time.Duration, time.Duration, time.Duration, error) {
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
				stream := t.compute[s]
				stream.WaitEvent(actReady[s][j])
				var kEnd time.Duration
				for _, k := range work[s].fwd {
					host[s], kEnd = stream.Launch(profiler.StageFP, k, host[s])
				}
				fwdOut[s][j] = kEnd
				if s+1 < stages {
					_, arrive, err := t.rt.MemcpyPeer(work[s+1].dev, work[s].dev,
						work[s].boundary, profiler.StageFP, kEnd, kEnd)
					if err != nil {
						return 0, 0, 0, err
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
				stream := t.compute[s]
				stream.WaitEvent(gradReady[s][j])
				var kEnd time.Duration
				for _, k := range work[s].bwd {
					host[s], kEnd = stream.Launch(profiler.StageBP, k, host[s])
				}
				if s > 0 {
					_, arrive, err := t.rt.MemcpyPeer(work[s-1].dev, work[s].dev,
						work[s].boundary, profiler.StageBP, kEnd, kEnd)
					if err != nil {
						return 0, 0, 0, err
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
		return fpEnd, bpEnd, barrier, nil
	}

	// Model-parallel iterations consume ONE mini-batch per iteration (the
	// batch is not replicated per GPU).
	iters := (t.schedule.Images + int64(t.cfg.Batch) - 1) / int64(t.cfg.Batch)
	now := t.sessionStartup()
	nsim := t.cfg.SimIters
	if int64(nsim) > iters {
		nsim = int(iters)
	}
	var fpW, bpW, wuW, iterDur time.Duration
	start := now
	for i := 0; i < nsim; i++ {
		if err := t.cancelled(); err != nil {
			return nil, err
		}
		fpEnd, bpEnd, barrier, err := runIteration(start)
		if err != nil {
			return nil, err
		}
		fpW = fpEnd - start
		bpW = bpEnd - fpEnd
		wuW = barrier - bpEnd
		iterDur = barrier - start
		start = barrier
	}
	epoch := start + time.Duration(iters-int64(nsim))*iterDur
	if int64(nsim) < iters {
		t.prof.Scale(float64(iters) / float64(nsim))
	}
	res := &Result{
		Config:     t.cfg,
		Iterations: iters,
		EpochTime:  epoch,
		SetupTime:  now,
		SteadyIter: iterDur,
		FPWall:     time.Duration(iters) * fpW,
		BPWall:     time.Duration(iters) * bpW,
		WUWall:     time.Duration(iters) * wuW,
		Profile:    t.prof,
		Memory:     t.memory,
	}
	res.Throughput = float64(t.schedule.Images) / epoch.Seconds()
	res.ComputeUtilization = t.computeUtilization(epoch) / float64(t.cfg.GPUs)
	res.SyncPercent = 100 * float64(t.prof.API("cudaStreamSynchronize").Total) /
		(float64(epoch) * float64(t.cfg.GPUs))
	return res, nil
}
