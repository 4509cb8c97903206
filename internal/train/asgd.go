package train

import (
	"fmt"
	"time"

	"repro/internal/kvstore"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// runAsync simulates the asynchronous-SGD variant the paper discusses in
// §II-B: no inter-GPU barrier — each GPU pushes its gradients to the
// parameter-server GPU, the server updates immediately, and the worker
// pulls the fresh weights and continues with its next mini-batch. Workers
// therefore train on slightly stale weights (the "delayed gradient"
// problem); the simulation reports timing, with staleness visible as the
// spread between workers' iteration clocks.
//
// ASGD exchanges are point-to-point by construction, so it requires the
// P2P method.
func (t *Trainer) runAsync() (*Result, error) {
	if t.cfg.Method != kvstore.MethodP2P {
		return nil, fmt.Errorf("train: async SGD requires the p2p method, got %q", t.cfg.Method)
	}
	root := t.backend.Root()
	modelBytes := t.cfg.Model.Net.ModelBytes()

	now := t.sessionStartup() + t.backend.SetupCost()
	setupEnd := now
	clock := make([]time.Duration, len(t.devs))
	for i, d := range t.devs {
		_, end, err := t.rt.MemcpyHostToDevice(d, modelBytes, profiler.StageOther, now)
		if err != nil {
			return nil, err
		}
		clock[i] = end
		if end > setupEnd {
			setupEnd = end
		}
	}

	nsim := t.cfg.SimIters
	if int64(nsim) > t.schedule.Iterations {
		nsim = int(t.schedule.Iterations)
	}
	var firstIterEnd, lastSimEnd time.Duration
	for i := 0; i < nsim; i++ {
		if err := t.cancelled(); err != nil {
			return nil, err
		}
		for w := range t.devs {
			end, err := t.asyncWorkerIteration(w, root, clock[w])
			if err != nil {
				return nil, err
			}
			clock[w] = end
			if end > lastSimEnd {
				lastSimEnd = end
			}
			if i == 0 && end > firstIterEnd {
				firstIterEnd = end
			}
		}
	}
	// Steady per-iteration time of the slowest worker.
	var steady time.Duration
	for _, c := range clock {
		per := (c - setupEnd) / time.Duration(nsim)
		if per > steady {
			steady = per
		}
	}
	remaining := t.schedule.Iterations - int64(nsim)
	epoch := lastSimEnd + time.Duration(remaining)*steady

	res := &Result{
		Config:     t.cfg,
		Iterations: t.schedule.Iterations,
		EpochTime:  epoch,
		SetupTime:  setupEnd,
		SteadyIter: steady,
		Profile:    t.prof,
		Memory:     t.memory,
	}
	if t.schedule.Iterations > int64(nsim) {
		t.prof.Scale(float64(t.schedule.Iterations) / float64(nsim))
	}
	res.Throughput = float64(t.schedule.Images) / epoch.Seconds()
	res.ComputeUtilization = t.computeUtilization(epoch)
	res.SyncPercent = 100 * float64(t.prof.API("cudaStreamSynchronize").Total) /
		(float64(epoch) * float64(t.cfg.GPUs))
	return res, nil
}

// asyncWorkerIteration runs worker w's (devs[w]'s) FP+BP and its
// independent exchange with the server, returning when the worker may
// start its next mini-batch.
func (t *Trainer) asyncWorkerIteration(w int, root topology.NodeID, start time.Duration) (time.Duration, error) {
	d, s, tab := t.devs[w], t.compute[w], t.tables[w]
	host, kEnd := s.LaunchRun(profiler.StageFP, tab.fwd, start)
	lastPull := kEnd
	gi := 0
	for ri, cut := range t.cuts {
		var runEnd time.Duration
		host, runEnd = s.LaunchRun(profiler.StageBP, tab.bwdRuns[ri], host)
		if cut.layer == nil {
			continue
		}
		upd := t.updates[gi]
		gi++
		size := units.BytesOf(cut.layer.Params, units.Float32Size)
		ready := runEnd
		var pushEnd time.Duration
		if d == root {
			pushEnd = ready
		} else {
			var err error
			_, pushEnd, err = t.rt.MemcpyPeer(root, d, size, profiler.StageWU, ready, ready)
			if err != nil {
				return 0, err
			}
		}
		updEnd := t.bookUpdate(pushEnd, upd)
		pullEnd := updEnd
		if d != root {
			var err error
			_, pullEnd, err = t.rt.MemcpyPeer(d, root, size, profiler.StageWU, updEnd, updEnd)
			if err != nil {
				return 0, err
			}
		}
		if pullEnd > lastPull {
			lastPull = pullEnd
		}
	}
	syncEnd := s.Synchronize(profiler.StageBP, host)
	end := t.rt.HostWait(d, profiler.StageWU, syncEnd, lastPull)
	return end, nil
}
