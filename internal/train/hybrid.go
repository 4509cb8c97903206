package train

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/gpu"
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
// gradients (a few MB) still take the ordinary exchange (Trainer.exchange).
//
// Schedule per iteration:
//  1. body FP on the local batch (data parallel),
//  2. all-gather of body outputs (every GPU assembles the global batch),
//  3. head FP: slice GEMM + all-gather of activations per FC layer,
//  4. head BP: slice GEMMs + reduce-scatter of input gradients,
//  5. body BP on the local batch, with conv gradients exchanged as they
//     appear (as in data parallelism),
//  6. local update of FC slices; exchanged update of conv weights.

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

// beginHybridOWT builds the hybrid schedule. Its setup adds the NCCL
// communicator's construction to framework startup; the model is not
// broadcast.
func (t *Trainer) beginHybridOWT() (time.Duration, iteration, error) {
	net := t.cfg.Model.Net
	headStart, err := splitHead(net)
	if err != nil {
		return 0, nil, err
	}
	g := t.cfg.GPUs
	globalBatch := t.cfg.Batch * g
	nodes := net.Nodes()

	// The activation collectives run on their own communicator, over the
	// trainer's rings (hybrid training requires the nccl method).
	comm, err := nccl.NewOn(t.rt, t.comm.Layout, nccl.Selection{})
	if err != nil {
		return 0, nil, err
	}

	// The body is the trainer's own tables at the local batch: the
	// forward prefix ahead of the head, and the backward runs after the
	// head's. The head's first FC layer is weighted, so a run ends exactly
	// where the body's backward steps begin; its runs' layers lead the
	// root's update durations.
	cuts, bodyAt := t.tables[0].plan.cuts, t.tables[0].plan.bwdAt[headStart]
	headRun, headLayers := 0, 1
	for ; headRun < len(cuts) && cuts[headRun].end < bodyAt; headRun++ {
		if cuts[headRun].layer != nil {
			headLayers++
		}
	}
	if headRun == len(cuts) || cuts[headRun].end != bodyAt || cuts[headRun].layer == nil {
		return 0, nil, fmt.Errorf("train: %s: no backward run ends at the head's first FC layer", net.Name)
	}
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
			if t.cfg.TensorCores {
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

	// Lower the head's slice kernels and local slice updates for each
	// device's spec (devices sharing a table share a spec), and slice
	// each device's body forward pass.
	type headKernels struct {
		fwd, dgrad, wgrad cuda.Kernel
		update            time.Duration // the slice's local update; zero if memory-bound
	}
	heads := make([][]headKernels, len(t.devs))
	bodyFwd := make([]cuda.Run, len(t.devs))
	for i, d := range t.devs {
		if i > 0 && t.tables[i] == t.tables[i-1] {
			heads[i], bodyFwd[i] = heads[i-1], bodyFwd[i-1]
			continue
		}
		spec := t.rt.Device(d).Spec
		lower := func(c gpu.KernelCost) cuda.Kernel { return t.rt.NewKernel(c.Name, spec.KernelDuration(c)) }
		heads[i] = make([]headKernels, len(head))
		for li, hl := range head {
			hk := &heads[i][li]
			hk.fwd = lower(hl.fwd)
			if !hl.memBound {
				hk.dgrad, hk.wgrad = lower(hl.dgrad), lower(hl.wgrad)
				hk.update = spec.KernelDuration(sgdUpdateCost(hl.sliceParams))
			}
		}
		bodyFwd[i] = t.tables[i].fwdSlice(0, headStart)
	}

	iterate := func(start time.Duration) (iterTimes, error) {
		t.passes += int64(len(t.devs))
		// 1. Body FP (data parallel).
		host := make([]time.Duration, len(t.devs))
		var bodyFPEnd time.Duration
		for i := range t.devs {
			s := &t.compute[i]
			h, kEnd := s.LaunchRun(profiler.StageFP, bodyFwd[i], start)
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
				s := &t.compute[i]
				s.WaitEvent(now)
				var e time.Duration
				host[i], e = s.Launch(profiler.StageFP, heads[i][li].fwd, host[i])
				if e > kEnd {
					kEnd = e
				}
			}
			now = kEnd
			if !hl.memBound && hl.actBytes > 0 {
				now = comm.AllGather(profiler.StageFP, hl.actBytes, now)
			}
		}
		fpEnd := now
		// 4. Head BP (reverse): slice dgrad/wgrad + reduce-scatter of the
		// input gradient; FC slice updates are local.
		for li := len(head) - 1; li >= 0; li-- {
			hl := head[li]
			var kEnd time.Duration
			for i := range t.devs {
				s, hk := &t.compute[i], heads[i][li]
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
		// 5. Body BP with conv gradients exchanged as they appear.
		var grads []layerGrad
		var bpEnd time.Duration
		for i := range t.devs {
			s := &t.compute[i]
			s.WaitEvent(now)
			host[i], grads, bpEnd = launchBackward(s, t.tables[i].bwdRuns().after(headRun), host[i], i == 0, grads, bpEnd)
		}
		// 6. Weight updates: conv via the exchange, FC slices locally.
		lastPull := bpEnd
		for j, gr := range grads {
			pullEnd, err := t.exchange(t.array(headLayers+j), gr.ready, t.update(headLayers+j))
			if err != nil {
				return iterTimes{}, err
			}
			if pullEnd > lastPull {
				lastPull = pullEnd
			}
		}
		barrier := lastPull
		for i, d := range t.devs {
			dev := t.rt.Device(d)
			end := bpEnd
			for li := len(head) - 1; li >= 0; li-- {
				if !head[li].memBound {
					_, end = dev.BookCommKernel(end, heads[i][li].update)
				}
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
		return iterTimes{start: start, fpEnd: fpEnd, bpEnd: bpEnd, barrier: barrier, steady: barrier - start, floor: barrier}, nil
	}
	return t.setupTime(), iterate, nil
}
