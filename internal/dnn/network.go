package dnn

import (
	"fmt"
	"sync"

	"repro/internal/memo"
	"repro/internal/units"
)

// Node is one operator instance in a network DAG, with its inferred output
// shape and derived per-image costs.
type Node struct {
	Name   string
	Op     Op
	Inputs []*Node

	Out      Shape
	ParamsN  int64
	FwdFLOPs units.FLOPs // per image
}

// ActivationBytesPerImage returns the bytes this node's output occupies for
// one image (float32 storage).
func (n *Node) ActivationBytesPerImage() units.Bytes {
	return units.BytesOf(n.Out.Elems(), units.Float32Size)
}

// InputBytesPerImage returns the summed bytes of this node's inputs for one
// image.
func (n *Node) InputBytesPerImage() units.Bytes {
	var b units.Bytes
	for _, in := range n.Inputs {
		b += units.BytesOf(in.Out.Elems(), units.Float32Size)
	}
	return b
}

// Network is a built, shape-checked DAG in topological order. The node
// graph is immutable after Finish; lowered kernel plans are memoized per
// (batch, options), so a network shared across goroutines (the model zoo
// hands out one instance per model) lowers each plan once. The batch is
// client-chosen, so the memo is bounded.
type Network struct {
	Name  string
	nodes []*Node
	plans *memo.Group[planKey, *compiledPlans]

	footprintOnce sync.Once
	footprint     Footprint
}

// Builder constructs networks. All add methods panic on structural errors
// (bad shapes, duplicate names): network definitions are static program
// data, so failing loudly at construction is the correct behaviour. Use
// Finish to obtain the network.
type Builder struct {
	name  string
	nodes []*Node
	names map[string]bool
	err   error
}

// NewBuilder starts a network definition.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, names: make(map[string]bool)}
}

// Add appends an operator consuming the given inputs and returns its node.
func (b *Builder) Add(name string, op Op, inputs ...*Node) *Node {
	if b.names[name] {
		panic(fmt.Sprintf("dnn: duplicate layer name %q in %s", name, b.name))
	}
	b.names[name] = true
	shapes := make([]Shape, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Out
	}
	out, err := op.InferShape(shapes)
	if err != nil {
		panic(fmt.Sprintf("dnn: %s/%s: %v", b.name, name, err))
	}
	n := &Node{
		Name:     name,
		Op:       op,
		Inputs:   inputs,
		Out:      out,
		ParamsN:  op.Params(shapes, out),
		FwdFLOPs: op.FwdFLOPs(shapes, out),
	}
	b.nodes = append(b.nodes, n)
	return n
}

// Input adds the data source node.
func (b *Builder) Input(name string, s Shape) *Node {
	return b.Add(name, Input{Shape: s})
}

// Finish validates and returns the network.
func (b *Builder) Finish() *Network {
	if len(b.nodes) == 0 {
		panic("dnn: empty network " + b.name)
	}
	return &Network{Name: b.name, nodes: b.nodes, plans: memo.New[planKey, *compiledPlans](128)}
}

// Nodes returns the nodes in topological (construction) order.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// Footprint is the per-image shape of a network's training memory: the
// graph-wide sums and maxima the memory model reads on every compile.
type Footprint struct {
	// Nodes is the node count.
	Nodes int
	// InputElems is the input node's output elements per image.
	InputElems int64
	// ActivationElems is ActivationElemsPerImage.
	ActivationElems int64
	// MaxIm2colElems is the largest convolution lowering buffer any layer
	// needs for one image: K*K*(Cin/groups)*Hout*Wout elements.
	MaxIm2colElems int64
	// MaxConsumers is the most input edges any one node's output feeds
	// (0 for a single-node network).
	MaxConsumers int
}

// Footprint returns the network's memory footprint. It depends only on
// the immutable graph, so it is computed on first use and kept with the
// network, and dropped with it.
func (n *Network) Footprint() Footprint {
	n.footprintOnce.Do(func() {
		f := Footprint{Nodes: len(n.nodes), InputElems: n.nodes[0].Out.Elems(), ActivationElems: n.ActivationElemsPerImage()}
		consumers := make(map[*Node]int, len(n.nodes))
		for _, nd := range n.nodes {
			for _, in := range nd.Inputs {
				consumers[in]++
				f.MaxConsumers = max(f.MaxConsumers, consumers[in])
			}
			c, ok := nd.Op.(Conv)
			if !ok {
				continue
			}
			g := int64(max(c.Groups, 1))
			in := nd.Inputs[0].Out
			f.MaxIm2colElems = max(f.MaxIm2colElems, int64(c.KH)*int64(c.KW)*(int64(in.C)/g)*int64(nd.Out.H)*int64(nd.Out.W))
		}
		n.footprint = f
	})
	return n.footprint
}

// ParamCount returns total trainable parameters.
func (n *Network) ParamCount() int64 {
	var p int64
	for _, nd := range n.nodes {
		p += nd.ParamsN
	}
	return p
}

// ModelBytes returns the float32 storage of all parameters — the size of
// the gradient exchange each iteration ("the size of the gradient data
// should be approximately equal to the size of the network model").
func (n *Network) ModelBytes() units.Bytes {
	return units.BytesOf(n.ParamCount(), units.Float32Size)
}

// FwdFLOPsPerImage returns total forward arithmetic per image.
func (n *Network) FwdFLOPsPerImage() units.FLOPs {
	var f units.FLOPs
	for _, nd := range n.nodes {
		f += nd.FwdFLOPs
	}
	return f
}

// ActivationElemsPerImage returns the summed output elements of all nodes —
// the feature-map footprint one image generates when all activations are
// retained for backpropagation.
func (n *Network) ActivationElemsPerImage() int64 {
	var e int64
	for _, nd := range n.nodes {
		e += nd.Out.Elems()
	}
	return e
}

// CountKind returns the number of nodes of the given operator kind.
func (n *Network) CountKind(k OpKind) int {
	c := 0
	for _, nd := range n.nodes {
		if nd.Op.Kind() == k {
			c++
		}
	}
	return c
}

// WeightedLayer identifies one parameter array for gradient exchange.
type WeightedLayer struct {
	Name   string
	Params int64
}

// WeightedLayers returns the network's parameter arrays in forward order.
// Backpropagation produces their gradients in reverse order; the trainer
// exchanges one array per entry, as MXNet's kvstore keys by NDArray.
func (n *Network) WeightedLayers() []WeightedLayer {
	var out []WeightedLayer
	for _, nd := range n.nodes {
		if nd.Op.Weighted() && nd.ParamsN > 0 {
			out = append(out, WeightedLayer{Name: nd.Name, Params: nd.ParamsN})
		}
	}
	return out
}

// Depth returns the longest input-to-output path counting only conv and FC
// nodes — the conventional "N-layer network" depth (AlexNet 8, GoogLeNet
// 22, ResNet-50 50).
func (n *Network) Depth() int {
	depth := make(map[*Node]int, len(n.nodes))
	best := 0
	for _, nd := range n.nodes {
		d := 0
		for _, in := range nd.Inputs {
			if depth[in] > d {
				d = depth[in]
			}
		}
		switch nd.Op.Kind() {
		case OpConv, OpFC:
			d++
		}
		depth[nd] = d
		if d > best {
			best = d
		}
	}
	return best
}
