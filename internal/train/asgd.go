package train

import (
	"math"
	"time"

	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// beginAsync builds the asynchronous-SGD schedule the paper discusses in
// §II-B: no inter-GPU barrier — each GPU pushes its gradients to the
// parameter-server GPU, the server updates immediately, and the worker
// pulls the fresh weights and continues with its next mini-batch. Workers
// therefore train on slightly stale weights (the "delayed gradient"
// problem); the simulation reports timing, with staleness visible as the
// spread between workers' iteration clocks.
//
// Setup broadcasts the model (mini-batches are not staged), and each
// worker's clock starts when its copy lands. One iteration advances every
// worker by one mini-batch from its own clock, ignoring start. With no
// barrier there is no FP/BP/WU split: the landmarks all sit at the latest
// worker clock, and the steady iteration is the slowest worker's mean
// since setup. Clocks only advance, so the latest clock is the slowest
// worker's, and truncating division keeps it the largest mean. No later
// booking is ready before the earliest clock, the iteration's floor.
func (t *Trainer) beginAsync() (time.Duration, iteration, error) {
	setupEnd, clock, err := t.broadcast(false)
	if err != nil {
		return 0, nil, err
	}
	t.carried = clock
	root := t.backend.Root()
	var n, last time.Duration
	return setupEnd, func(time.Duration) (iterTimes, error) {
		n++
		floor := time.Duration(math.MaxInt64)
		for w := range t.devs {
			end, err := t.asyncWorkerIteration(w, root, clock[w])
			if err != nil {
				return iterTimes{}, err
			}
			clock[w] = end
			last, floor = max(last, end), min(floor, end)
		}
		return iterTimes{start: last, fpEnd: last, bpEnd: last, barrier: last, steady: (last - setupEnd) / n, floor: floor}, nil
	}, nil
}

// asyncWorkerIteration runs worker w's (devs[w]'s) FP+BP and its
// independent exchange with the server, returning when the worker may
// start its next mini-batch.
func (t *Trainer) asyncWorkerIteration(w int, root topology.NodeID, start time.Duration) (time.Duration, error) {
	t.passes++
	d, s, tab := t.devs[w], &t.compute[w], t.tables[w]
	host, kEnd := s.LaunchRun(profiler.StageFP, tab.fwdRun(), start)
	lastPull := kEnd
	gi := 0
	runs := tab.bwdRuns()
	for ri, cut := range runs.cuts {
		var runEnd time.Duration
		host, runEnd = s.LaunchRun(profiler.StageBP, runs.run(ri), host)
		if cut.layer == nil {
			continue
		}
		upd := t.update(gi)
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
