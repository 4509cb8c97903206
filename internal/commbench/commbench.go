// Package commbench is the simulator's nccl-tests analog: it times the raw
// communication primitives — NCCL collectives and P2P tree equivalents —
// across message sizes and GPU counts, reporting algorithm and bus
// bandwidth. It isolates the transport behaviour that the training-level
// results (the paper's Figure 3) are built from.
package commbench

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/nccl"
	"repro/internal/p2p"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/train"
	"repro/internal/units"
)

// Op names a collective pattern.
type Op string

// Benchmarked operations. AllReduce is gradient aggregation; Broadcast is
// weight distribution — the two WU-stage primitives.
const (
	AllReduce Op = "allreduce"
	Broadcast Op = "broadcast"
)

// Point is one measured configuration.
type Point struct {
	Op     Op
	Method train.Method
	GPUs   int
	Size   units.Bytes
	// Time is the end-to-end completion of one operation issued at t=0 on
	// idle hardware.
	Time time.Duration
	// AlgBW is size/time — what the caller experiences.
	AlgBW units.Bandwidth
	// BusBW normalizes AlgBW by the algorithm's traffic factor (2(n-1)/n
	// for ring all-reduce), nccl-tests' hardware-comparable metric.
	BusBW units.Bandwidth
}

// DefaultSizes is a logarithmic sweep from 4KB to 256MB.
func DefaultSizes() []units.Bytes {
	var out []units.Bytes
	for s := 4 * units.KB; s <= 256*units.MB; s *= 4 {
		out = append(out, s)
	}
	return out
}

// Measure times one operation on a fresh, idle DGX-1.
func Measure(op Op, method train.Method, gpus int, size units.Bytes) (Point, error) {
	return MeasureBurst(op, method, gpus, size, 1)
}

// MeasureBurst times `count` operations of the given size issued
// back-to-back (all inputs ready at t=0) and reports the END-TO-END time of
// the burst with per-op averages in the bandwidth fields. Bursts expose the
// pipelining structure training exercises: the P2P chains of different
// arrays overlap freely across links and copy engines, while NCCL
// collectives serialize on the communicator's stream.
func MeasureBurst(op Op, method train.Method, gpus int, size units.Bytes, count int) (Point, error) {
	if gpus < 1 || gpus > 8 {
		return Point{}, fmt.Errorf("commbench: gpu count %d out of range", gpus)
	}
	if count < 1 {
		return Point{}, fmt.Errorf("commbench: burst count %d out of range", count)
	}
	fab := interconnect.New(topology.DGX1())
	devs := make([]topology.NodeID, gpus)
	for i := range devs {
		devs[i] = topology.NodeID(i)
	}
	rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), profiler.New())
	if err != nil {
		return Point{}, err
	}

	var end time.Duration
	switch method {
	case train.MethodNCCL:
		comm, err := nccl.New(rt, devs, nccl.Selection{})
		if err != nil {
			return Point{}, err
		}
		for i := 0; i < count; i++ {
			var e time.Duration
			switch op {
			case AllReduce:
				e = comm.AllReduce(profiler.StageWU, size, 0)
			case Broadcast:
				e = comm.Broadcast(profiler.StageWU, size, 0)
			default:
				return Point{}, fmt.Errorf("commbench: unknown op %q", op)
			}
			if e > end {
				end = e
			}
		}
	case train.MethodP2P:
		eng2, err := p2p.New(rt, devs)
		if err != nil {
			return Point{}, err
		}
		adds := eng2.AddDurations(size, nil)
		for i := 0; i < count; i++ {
			var e time.Duration
			switch op {
			case AllReduce:
				// The P2P equivalent of all-reduce: tree reduce to the
				// root then broadcast back (what the device kvstore does
				// per key).
				mid, err := eng2.ReduceToRoot(profiler.StageWU, size, 0, adds)
				if err != nil {
					return Point{}, err
				}
				e, err = eng2.BroadcastFromRoot(profiler.StageWU, size, mid)
				if err != nil {
					return Point{}, err
				}
			case Broadcast:
				e, err = eng2.BroadcastFromRoot(profiler.StageWU, size, 0)
				if err != nil {
					return Point{}, err
				}
			default:
				return Point{}, fmt.Errorf("commbench: unknown op %q", op)
			}
			if e > end {
				end = e
			}
		}
	default:
		return Point{}, fmt.Errorf("commbench: unknown method %q", method)
	}

	p := Point{Op: op, Method: method, GPUs: gpus, Size: size * units.Bytes(count), Time: end}
	if end > 0 {
		p.AlgBW = units.Bandwidth(float64(size) / end.Seconds())
		factor := 1.0
		if op == AllReduce && gpus > 1 {
			factor = 2 * float64(gpus-1) / float64(gpus)
		}
		p.BusBW = units.Bandwidth(float64(p.AlgBW) * factor)
	}
	return p, nil
}

// Sweep measures every (size x method) combination for one op and GPU
// count, sizes ascending, P2P before NCCL.
func Sweep(op Op, gpus int, sizes []units.Bytes) ([]Point, error) {
	var out []Point
	for _, size := range sizes {
		for _, m := range []train.Method{train.MethodP2P, train.MethodNCCL} {
			p, err := Measure(op, m, gpus, size)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// CrossoverBurst is the per-layer op count used by Crossover, roughly a
// small network's weighted-array count.
const CrossoverBurst = 16

// Crossover returns the smallest sweep size at which a burst of NCCL
// all-reduces beats the equivalent P2P burst for the GPU count, or 0 if it
// never does — the array-size boundary behind the paper's "P2P for small
// networks, NCCL for large" guidance. Bursts (not single ops) are the
// training-relevant comparison: per-layer P2P chains overlap, NCCL
// collectives serialize on their stream.
func Crossover(gpus int, sizes []units.Bytes) (units.Bytes, error) {
	for _, size := range sizes {
		pp, err := MeasureBurst(AllReduce, train.MethodP2P, gpus, size, CrossoverBurst)
		if err != nil {
			return 0, err
		}
		nc, err := MeasureBurst(AllReduce, train.MethodNCCL, gpus, size, CrossoverBurst)
		if err != nil {
			return 0, err
		}
		if nc.Time < pp.Time {
			return size, nil
		}
	}
	return 0, nil
}
