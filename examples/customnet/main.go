// Customnet shows the deeper API: define a brand-new CNN with the dnn
// builder, wrap it as a model description, and study its multi-GPU scaling
// with both communication methods — the workflow a model designer would
// use to predict training behaviour before buying DGX time.
package main

import (
	"fmt"
	"log"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/train"
)

// buildTinyVGG defines a small VGG-style network: stacked 3x3 convolutions
// with a modest classifier head.
func buildTinyVGG() models.Description {
	in := dnn.Shape{C: 3, H: 224, W: 224}
	b := dnn.NewBuilder("TinyVGG")
	x := b.Input("data", in)
	block := func(name string, outC int) {
		x = b.Add(name+"_conv1", dnn.Conv{OutC: outC, KH: 3, KW: 3, PadH: 1, PadW: 1, Bias: true}, x)
		x = b.Add(name+"_relu1", dnn.Activation{Mode: dnn.ReLU}, x)
		x = b.Add(name+"_conv2", dnn.Conv{OutC: outC, KH: 3, KW: 3, PadH: 1, PadW: 1, Bias: true}, x)
		x = b.Add(name+"_relu2", dnn.Activation{Mode: dnn.ReLU}, x)
		x = b.Add(name+"_pool", dnn.Pool{Mode: dnn.MaxPool, K: 2, Stride: 2}, x)
	}
	block("b1", 32)
	block("b2", 64)
	block("b3", 128)
	block("b4", 256)
	x = b.Add("gap", dnn.Pool{Mode: dnn.AvgPool, Global: true}, x)
	x = b.Add("flatten", dnn.Flatten{}, x)
	x = b.Add("fc", dnn.FC{OutF: 1000, Bias: true}, x)
	b.Add("softmax", dnn.Softmax{}, x)
	net := b.Finish()
	return models.Description{
		Name:       "TinyVGG",
		Net:        net,
		Depth:      net.Depth(),
		ConvLayers: net.CountKind(dnn.OpConv),
		FCLayers:   net.CountKind(dnn.OpFC),
		Params:     net.ParamCount(),
		InputShape: in,
	}
}

func main() {
	d := buildTinyVGG()
	fmt.Printf("%s: depth %d, %d conv + %d fc layers, %d parameters (%v)\n",
		d.Name, d.Depth, d.ConvLayers, d.FCLayers, d.Params, d.Net.ModelBytes())
	fmt.Printf("forward cost: %v per image\n\n", d.Net.FwdFLOPsPerImage())

	fmt.Printf("%-6s %-8s %-14s %-12s %s\n", "gpus", "method", "epoch", "speedup", "exposed WU")
	var base float64
	for _, method := range []train.Method{train.MethodP2P, train.MethodNCCL} {
		for _, gpus := range []int{1, 2, 4, 8} {
			cfg := train.Config{
				Model:       d,
				GPUs:        gpus,
				Batch:       32,
				Method:      method,
				TensorCores: true,
			}
			tr, err := train.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := tr.Run()
			if err != nil {
				log.Fatal(err)
			}
			if gpus == 1 && method == train.MethodP2P {
				base = res.EpochTime.Seconds()
			}
			fmt.Printf("%-6d %-8s %-14v %-12.2f %v\n",
				gpus, method, res.EpochTime.Round(1e6),
				base/res.EpochTime.Seconds(), res.WUWall.Round(1e6))
		}
	}
}
