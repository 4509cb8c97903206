// Package kvstore provides the MXNet-style parameter exchange layer: each
// weight array is a key; gradients are pushed (aggregated onto the root
// GPU) and updated weights pulled (distributed back). Two backends
// implement the paper's two communication methods — "device" (P2P direct
// transfers) and "nccl" (collective kernels).
package kvstore

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/nccl"
	"repro/internal/p2p"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// Method selects a communication backend.
type Method string

// Communication methods, named as the paper names them.
const (
	MethodP2P  Method = "p2p"
	MethodNCCL Method = "nccl"
)

// Array is one parameter array's exchange: its size per device, and the
// costs of moving it that depend on nothing booked. A trainer exchanges
// the same arrays every iteration, so it prices each once; an array of
// any other size (a fused bucket) is priced on the fly (Backend.Price).
// Each backend reads the costs of its own method.
type Array struct {
	Size units.Bytes
	// Adds[i] is rank i's gradient-accumulate kernel duration for the
	// array (p2p.AddCost on rank i's spec), for the P2P reduction.
	Adds []time.Duration
	// Wire is the array's NCCL collective wire times.
	Wire nccl.Wire
}

// Backend moves gradients and weights for one training session.
type Backend interface {
	// Name returns the method name.
	Name() Method
	// Root returns the GPU that aggregates gradients and holds the
	// authoritative weights (GPU 0 in the paper's MXNet).
	Root() topology.NodeID
	// Price fills the costs of a, of a.Size bytes per device, that the
	// backend reads (reusing a.Adds' storage).
	Price(a *Array)
	// PushGradient aggregates one gradient array across all devices,
	// returning when the aggregate is available on the root (and, for
	// all-reduce backends, everywhere).
	PushGradient(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error)
	// PullWeights distributes one updated weight array from the root to
	// every device, returning when the last device has them.
	PullWeights(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error)
	// SetupCost is the one-time initialization charge (NCCL communicator
	// construction; effectively zero for P2P).
	SetupCost() time.Duration
}

// ErrNoDevices is returned when a backend is requested over an empty
// device slice. Every method needs at least one device (the nccl root is
// devs[0]), so the check lives here — once, ahead of any indexing —
// rather than scattered across the backends' engines.
var ErrNoDevices = errors.New("kvstore: at least one device is required")

// New creates a backend of the given method over the devices. The nccl
// method runs its collectives as sel selects (the zero Selection is the
// paper's rings over Simple) on the communicator's prebuilt rings over
// devs (nil builds them); the other methods ignore both.
func New(method Method, rt *cuda.Runtime, devs []topology.NodeID, sel nccl.Selection, rings *nccl.Layout) (Backend, error) {
	if len(devs) == 0 {
		return nil, ErrNoDevices
	}
	switch method {
	case MethodP2P:
		eng, err := p2p.New(rt, devs)
		if err != nil {
			return nil, err
		}
		return &deviceBackend{eng: eng}, nil
	case MethodNCCL:
		if rings == nil {
			var err error
			if rings, err = nccl.NewLayout(rt.Fabric().Topology(), devs); err != nil {
				return nil, err
			}
		}
		comm, err := nccl.NewOn(rt, rings, sel)
		if err != nil {
			return nil, err
		}
		return &ncclBackend{comm: comm, root: devs[0]}, nil
	case MethodLocal:
		return &localBackend{rt: rt, devs: append([]topology.NodeID(nil), devs...)}, nil
	}
	return nil, fmt.Errorf("kvstore: unknown method %q", method)
}

// deviceBackend is the P2P direct-transfer kvstore ("device" in MXNet).
type deviceBackend struct {
	eng *p2p.Engine
}

func (b *deviceBackend) Name() Method             { return MethodP2P }
func (b *deviceBackend) Root() topology.NodeID    { return b.eng.Root() }
func (b *deviceBackend) SetupCost() time.Duration { return 0 }

func (b *deviceBackend) Price(a *Array) { a.Adds = b.eng.AddDurations(a.Size, a.Adds) }

func (b *deviceBackend) PushGradient(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error) {
	return b.eng.ReduceToRoot(stage, a.Size, ready, a.Adds)
}

func (b *deviceBackend) PullWeights(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error) {
	return b.eng.BroadcastFromRoot(stage, a.Size, ready)
}

// ncclBackend uses AllReduce for gradients and Broadcast for weights, as
// the paper describes MXNet's NCCL kvstore.
type ncclBackend struct {
	comm *nccl.Communicator
	root topology.NodeID
}

func (b *ncclBackend) Name() Method             { return MethodNCCL }
func (b *ncclBackend) Root() topology.NodeID    { return b.root }
func (b *ncclBackend) SetupCost() time.Duration { return b.comm.SetupCost() }

func (b *ncclBackend) Price(a *Array) { a.Wire = b.comm.Price(a.Size) }

func (b *ncclBackend) PushGradient(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error) {
	return b.comm.AllReducePriced(stage, a.Wire, ready), nil
}

func (b *ncclBackend) PullWeights(stage profiler.Stage, a *Array, ready time.Duration) (time.Duration, error) {
	return b.comm.BroadcastPriced(stage, a.Wire, ready), nil
}
