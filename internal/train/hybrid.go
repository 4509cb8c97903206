package train

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/kvstore"
	"repro/internal/nccl"
	"repro/internal/profiler"
	"repro/internal/units"
)

// Hybrid "one weird trick" parallelism: the convolutional body is
// data-parallel (replicated, one mini-batch slice per GPU) while the
// fully-connected head is tensor-parallel (each GPU holds a 1/G column
// slice of every FC weight matrix and processes the GLOBAL batch).
//
// This is the concrete scheme behind the paper's §I observation that
// "model parallelism is more suitable for networks with more fully
// connected layers": the FC weights — AlexNet's 224 MB of its 232 MB —
// are never exchanged at all (each slice updates locally); what moves
// instead are activations, which for FC layers are tiny. Convolution
// gradients (a few MB) still use the ordinary kvstore path.
//
// Schedule per iteration:
//  1. body FP on the local batch (data parallel),
//  2. all-gather of body outputs (every GPU assembles the global batch),
//  3. head FP: slice GEMM + all-gather of activations per FC layer,
//  4. head BP: slice GEMMs + reduce-scatter of input gradients,
//  5. body BP on the local batch, with conv gradients pushed through the
//     kvstore as they appear (as in data parallelism),
//  6. local update of FC slices; kvstore update of conv weights.

// splitHead returns the node index at which the FC head begins (the first
// OpFC node), and validates the head is a single-tensor chain the tensor-
// parallel schedule supports.
func splitHead(net *dnn.Network) (int, error) {
	nodes := net.Nodes()
	first := -1
	for i, nd := range nodes {
		if nd.Op.Kind() == dnn.OpFC {
			first = i
			break
		}
	}
	if first <= 0 {
		return 0, fmt.Errorf("train: %s has no fully-connected head to tensor-parallelize", net.Name)
	}
	for _, nd := range nodes[first:] {
		switch nd.Op.Kind() {
		case dnn.OpFC, dnn.OpActivation, dnn.OpDropout, dnn.OpSoftmax, dnn.OpFlatten:
		default:
			return 0, fmt.Errorf("train: %s head contains %s; only FC chains are supported", net.Name, nd.Op.Kind())
		}
		if len(nd.Inputs) > 1 {
			return 0, fmt.Errorf("train: %s head branches at %s", net.Name, nd.Name)
		}
	}
	return first, nil
}

// runHybridOWT simulates one epoch of the hybrid scheme.
func (t *Trainer) runHybridOWT() (*Result, error) {
	if t.cfg.Method != kvstore.MethodNCCL {
		return nil, fmt.Errorf("train: hybrid parallelism needs the nccl method for its activation collectives")
	}
	net := t.cfg.Model.Net
	headStart, err := splitHead(net)
	if err != nil {
		return nil, err
	}
	g := t.cfg.GPUs
	globalBatch := t.cfg.Batch * g
	opts := dnn.PlanOptions{TensorCores: t.cfg.TensorCores}
	nodes := net.Nodes()

	// The activation collectives run on their own communicator.
	comm, err := nccl.New(t.rt, t.devs, nccl.DefaultConfig())
	if err != nil {
		return nil, err
	}

	// Body plans at the local batch.
	bodyPlans := net.NodePlans(t.cfg.Batch, opts)[:headStart]
	// Boundary activation: the body's last node output over the global
	// batch.
	boundary := nodes[headStart-1]
	boundaryBytes := units.BytesOf(boundary.Out.Elems()*int64(globalBatch), units.Float32Size)

	// Head: per-GPU sliced kernels over the global batch.
	type headLayer struct {
		fwd, dgrad, wgrad gpu.KernelCost
		actBytes          units.Bytes // all-gather payload after FP
		inBytes           units.Bytes // reduce-scatter payload in BP
		sliceParams       units.Bytes
		memBound          bool
	}
	var head []headLayer
	for _, nd := range nodes[headStart:] {
		switch nd.Op.Kind() {
		case dnn.OpFC:
			in := nd.Inputs[0].Out.Elems()
			out := nd.Out.Elems()
			sliceOut := out / int64(g)
			if sliceOut == 0 {
				sliceOut = 1
			}
			flops := units.FLOPs(2 * in * sliceOut * int64(globalBatch))
			params := in * sliceOut
			mem := units.BytesOf(in*int64(globalBatch)+sliceOut*int64(globalBatch), units.Float32Size) +
				units.BytesOf(params, units.Float32Size)
			class, eff := gpu.ClassFMA, 0.25
			if opts.TensorCores {
				class, eff = gpu.ClassTensor, 0.125
			}
			hl := headLayer{
				fwd: gpu.KernelCost{
					Name: "fc_slice_fprop", FLOPs: flops, MemBytes: mem,
					Parallelism: sliceOut * int64(globalBatch), Class: class, Eff: eff,
				},
				actBytes:    units.BytesOf(out*int64(globalBatch), units.Float32Size),
				inBytes:     units.BytesOf(in*int64(globalBatch), units.Float32Size),
				sliceParams: units.BytesOf(params, units.Float32Size),
			}
			hl.dgrad = hl.fwd
			hl.dgrad.Name = "fc_slice_dgrad"
			hl.wgrad = hl.fwd
			hl.wgrad.Name = "fc_slice_wgrad"
			head = append(head, hl)
		case dnn.OpActivation, dnn.OpDropout, dnn.OpSoftmax:
			b := units.BytesOf(nd.Out.Elems()*int64(globalBatch), units.Float32Size)
			head = append(head, headLayer{
				fwd: gpu.KernelCost{
					Name: nd.Op.Kind().String() + "_fprop", FLOPs: units.FLOPs(nd.Out.Elems() * int64(globalBatch)),
					MemBytes: 2 * b, Parallelism: nd.Out.Elems() * int64(globalBatch), Class: gpu.ClassMemory,
				},
				memBound: true,
			})
		}
	}

	// Lower once per distinct device spec: the body's kernels, the head's
	// slice kernels, and the head's local slice updates (in the backward
	// order they are booked).
	type headKernels struct{ fwd, dgrad, wgrad cuda.Kernel }
	type hybridTable struct {
		bodyFwd []cuda.Kernel   // every body plan's forward kernels, in order
		bodyBwd [][]cuda.Kernel // bodyBwd[i] is body plan i's backward kernels
		head    []headKernels
		updates []time.Duration
	}
	tables := perSpec(t, func(spec gpu.Spec) *hybridTable {
		tab := &hybridTable{bodyBwd: make([][]cuda.Kernel, len(bodyPlans)), head: make([]headKernels, len(head))}
		for _, p := range bodyPlans {
			tab.bodyFwd = t.rt.Lower(tab.bodyFwd, spec, p.Fwd)
		}
		for i, p := range bodyPlans {
			tab.bodyBwd[i] = t.rt.Lower(nil, spec, p.Bwd)
		}
		lower := func(c gpu.KernelCost) cuda.Kernel { return t.rt.NewKernel(c.Name, spec.KernelDuration(c)) }
		for i, hl := range head {
			tab.head[i].fwd = lower(hl.fwd)
			if !hl.memBound {
				tab.head[i].dgrad, tab.head[i].wgrad = lower(hl.dgrad), lower(hl.wgrad)
			}
		}
		for li := len(head) - 1; li >= 0; li-- {
			if !head[li].memBound {
				tab.updates = append(tab.updates, spec.KernelDuration(sgdUpdateCost(head[li].sliceParams)))
			}
		}
		return tab
	})
	// The root's update kernel for each body layer with parameters, in
	// backward order.
	var bodyUpdates []cuda.Kernel
	for bi := headStart - 1; bi >= 0; bi-- {
		if l := bodyPlans[bi].Layer; l != nil {
			bodyUpdates = append(bodyUpdates, t.updateKernel(units.BytesOf(l.Params, units.Float32Size)))
		}
	}

	runIteration := func(start time.Duration) (fpEnd, bpEnd, barrier time.Duration, err error) {
		type grad struct {
			name  string
			bytes units.Bytes
			ready time.Duration
			upd   cuda.Kernel
		}
		// 1. Body FP (data parallel).
		host := make([]time.Duration, len(t.devs))
		var bodyFPEnd time.Duration
		for i := range t.devs {
			s := t.compute[i]
			h := start
			var kEnd time.Duration
			for _, k := range tables[i].bodyFwd {
				h, kEnd = s.Launch(profiler.StageFP, k, h)
			}
			host[i] = h
			if kEnd > bodyFPEnd {
				bodyFPEnd = kEnd
			}
		}
		// 2. Assemble the global batch everywhere.
		now := comm.AllGather(profiler.StageFP, boundaryBytes, bodyFPEnd)
		// 3. Head FP: slice kernels + per-FC all-gather.
		for li, hl := range head {
			var kEnd time.Duration
			for i := range t.devs {
				s := t.compute[i]
				s.WaitEvent(now)
				var e time.Duration
				host[i], e = s.Launch(profiler.StageFP, tables[i].head[li].fwd, host[i])
				if e > kEnd {
					kEnd = e
				}
			}
			now = kEnd
			if !hl.memBound && hl.actBytes > 0 {
				now = comm.AllGather(profiler.StageFP, hl.actBytes, now)
			}
		}
		fpEnd = now
		// 4. Head BP (reverse): slice dgrad/wgrad + reduce-scatter of the
		// input gradient; FC slice updates are local.
		for li := len(head) - 1; li >= 0; li-- {
			hl := head[li]
			var kEnd time.Duration
			for i := range t.devs {
				s, hk := t.compute[i], tables[i].head[li]
				s.WaitEvent(now)
				var e time.Duration
				if hl.memBound {
					host[i], e = s.Launch(profiler.StageBP, hk.fwd, host[i])
				} else {
					host[i], _ = s.Launch(profiler.StageBP, hk.dgrad, host[i])
					host[i], e = s.Launch(profiler.StageBP, hk.wgrad, host[i])
				}
				if e > kEnd {
					kEnd = e
				}
			}
			now = kEnd
			if !hl.memBound {
				if hl.inBytes > 0 {
					now = comm.ReduceScatter(profiler.StageBP, hl.inBytes, now)
				}
			}
		}
		// 5. Body BP with conv gradients through the kvstore.
		var grads []grad
		var bodyBPEnd time.Duration
		for i := range t.devs {
			s := t.compute[i]
			s.WaitEvent(now)
			gi := 0
			for bi := headStart - 1; bi >= 0; bi-- {
				p := bodyPlans[bi]
				var stepEnd time.Duration
				for _, k := range tables[i].bodyBwd[bi] {
					host[i], stepEnd = s.Launch(profiler.StageBP, k, host[i])
				}
				if p.Layer != nil {
					if i == 0 {
						size := units.BytesOf(p.Layer.Params, units.Float32Size)
						grads = append(grads, grad{name: p.Layer.Name, bytes: size, ready: stepEnd, upd: bodyUpdates[len(grads)]})
					} else {
						if stepEnd > grads[gi].ready {
							grads[gi].ready = stepEnd
						}
						gi++
					}
				}
				if stepEnd > bodyBPEnd {
					bodyBPEnd = stepEnd
				}
			}
		}
		bpEnd = bodyBPEnd
		// 6. Weight updates: conv via kvstore, FC slices locally.
		lastPull := bpEnd
		for _, gr := range grads {
			pushEnd, err := t.backend.PushGradient(profiler.StageWU, gr.name, gr.bytes, gr.ready)
			if err != nil {
				return 0, 0, 0, err
			}
			updEnd := t.bookUpdate(pushEnd, gr.upd)
			pullEnd, err := t.backend.PullWeights(profiler.StageWU, gr.name, gr.bytes, updEnd)
			if err != nil {
				return 0, 0, 0, err
			}
			if pullEnd > lastPull {
				lastPull = pullEnd
			}
		}
		barrier = lastPull
		for i, d := range t.devs {
			dev := t.rt.Device(d)
			end := bpEnd
			for _, dur := range tables[i].updates {
				_, end = dev.BookCommKernel(end, dur)
			}
			if end > barrier {
				barrier = end
			}
		}
		for i, d := range t.devs {
			w := t.rt.HostWait(d, profiler.StageWU, host[i], barrier)
			if w > barrier {
				barrier = w
			}
		}
		return fpEnd, bpEnd, barrier, nil
	}

	now := t.sessionStartup() + t.backend.SetupCost()
	nsim := t.cfg.SimIters
	if int64(nsim) > t.schedule.Iterations {
		nsim = int(t.schedule.Iterations)
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
	iters := t.schedule.Iterations
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
	res.ComputeUtilization = t.computeUtilization(epoch)
	res.SyncPercent = 100 * float64(t.prof.API("cudaStreamSynchronize").Total) /
		(float64(epoch) * float64(t.cfg.GPUs))
	return res, nil
}
