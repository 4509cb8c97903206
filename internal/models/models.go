// Package models is the simulator's model zoo: the five image-classification
// networks the paper trains (LeNet, AlexNet, GoogLeNet, Inception-v3,
// ResNet-50), each built layer by layer with its published architecture so
// that parameter counts, FLOPs, and activation footprints derive from the
// real structure.
package models

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dnn"
	"repro/internal/memo"
)

// ImageNet classification uses 1000 classes; LeNet keeps its classic
// 10-class head (its "K"-scale weight count in the paper's Table I matches
// the classic network).
const (
	imageNetClasses = 1000
	leNetClasses    = 10
)

// Description summarizes a network for the paper's Table I.
type Description struct {
	Name             string
	Net              *dnn.Network
	Depth            int // conventional depth (conv+FC on the longest path)
	ConvLayers       int
	InceptionModules int
	FCLayers         int
	Params           int64
	Residual         bool
	InputShape       dnn.Shape
}

// builderFunc constructs one zoo entry.
type builderFunc func() Description

var zoo = map[string]builderFunc{
	"lenet":        LeNet,
	"alexnet":      AlexNet,
	"googlenet":    GoogLeNet,
	"inception-v3": InceptionV3,
	"resnet":       ResNet50,
}

// Names returns the zoo's model names in the paper's presentation order.
func Names() []string {
	return []string{"lenet", "alexnet", "resnet", "googlenet", "inception-v3"}
}

// built memoizes constructed Descriptions: the network graph, shape
// inference, and derived counts are identical on every build, so each zoo
// entry is compiled once per process and shared. Descriptions (and the
// *dnn.Network they carry) are immutable after construction — callers
// treat them as read-only. Unknown names are never stored, so the zoo
// bounds the memo.
var built = memo.New[string, Description](len(zoo))

// ByName returns the named model, building it on first use and serving
// the memoized Description afterwards. Valid names are those returned by
// Names.
func ByName(name string) (Description, error) {
	if d, ok := built.Get(name); ok {
		return d, nil
	}
	b, ok := zoo[name]
	if !ok {
		known := make([]string, 0, len(zoo))
		for k := range zoo {
			known = append(known, k)
		}
		sort.Strings(known)
		return Description{}, fmt.Errorf("models: unknown model %q (have %v)", name, known)
	}
	d, _, err := built.Do(context.Background(), name, memo.Inline,
		func(context.Context) (Description, error) { return b(), nil })
	return d, err
}

// ResetCache drops the memoized zoo so the next ByName rebuilds from
// scratch. Only benchmarks and tests measuring the cold path need it.
func ResetCache() { built.Reset() }

// All builds every model in presentation order.
func All() []Description {
	out := make([]Description, 0, len(zoo))
	for _, n := range Names() {
		d, err := ByName(n)
		if err != nil {
			panic(err) // Names() and zoo are static and must agree
		}
		out = append(out, d)
	}
	return out
}

// describe fills the derived fields of a Description.
func describe(name string, net *dnn.Network, inceptionModules int, residual bool, input dnn.Shape) Description {
	return Description{
		Name:             name,
		Net:              net,
		Depth:            net.Depth(),
		ConvLayers:       net.CountKind(dnn.OpConv),
		InceptionModules: inceptionModules,
		FCLayers:         net.CountKind(dnn.OpFC),
		Params:           net.ParamCount(),
		Residual:         residual,
		InputShape:       input,
	}
}
