package dnn

import (
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/units"
)

func TestShapeElems(t *testing.T) {
	if got := (Shape{C: 64, H: 56, W: 56}).Elems(); got != 64*56*56 {
		t.Errorf("elems = %d", got)
	}
	if !(Shape{C: 1, H: 1, W: 1}).Valid() {
		t.Error("1x1x1 should be valid")
	}
	if (Shape{C: 0, H: 1, W: 1}).Valid() {
		t.Error("zero channel should be invalid")
	}
	if Vec(100) != (Shape{C: 100, H: 1, W: 1}) {
		t.Error("Vec wrong")
	}
}

func TestConvShapeAndParams(t *testing.T) {
	c := Conv{OutC: 64, KH: 3, KW: 3, StrideH: 1, PadH: 1, PadW: 1, Bias: true}
	in := Shape{C: 32, H: 56, W: 56}
	out, err := c.InferShape([]Shape{in})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 64, H: 56, W: 56}) {
		t.Errorf("out = %v", out)
	}
	wantParams := int64(3*3*32*64 + 64)
	if got := c.Params([]Shape{in}, out); got != wantParams {
		t.Errorf("params = %d, want %d", got, wantParams)
	}
	wantFLOPs := units.FLOPs(2 * 3 * 3 * 32 * out.Elems())
	if got := c.FwdFLOPs([]Shape{in}, out); got != wantFLOPs {
		t.Errorf("flops = %d, want %d", got, wantFLOPs)
	}
}

func TestConvStride(t *testing.T) {
	c := Conv{OutC: 96, KH: 11, KW: 11, StrideH: 4, PadH: 2, PadW: 2}
	out, err := c.InferShape([]Shape{{C: 3, H: 224, W: 224}})
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 55 || out.W != 55 {
		t.Errorf("AlexNet conv1 output = %v, want 96x55x55", out)
	}
}

func TestConvGroupsHalveParams(t *testing.T) {
	in := Shape{C: 96, H: 27, W: 27}
	full := Conv{OutC: 256, KH: 5, KW: 5, PadH: 2, PadW: 2}
	grouped := Conv{OutC: 256, KH: 5, KW: 5, PadH: 2, PadW: 2, Groups: 2}
	outF, _ := full.InferShape([]Shape{in})
	outG, _ := grouped.InferShape([]Shape{in})
	if full.Params([]Shape{in}, outF) != 2*grouped.Params([]Shape{in}, outG) {
		t.Error("2-group conv should halve weights")
	}
	if full.FwdFLOPs([]Shape{in}, outF) != 2*grouped.FwdFLOPs([]Shape{in}, outG) {
		t.Error("2-group conv should halve FLOPs")
	}
}

func TestConvErrors(t *testing.T) {
	if _, err := (Conv{OutC: 0, KH: 3, KW: 3}).InferShape([]Shape{{C: 3, H: 8, W: 8}}); err == nil {
		t.Error("zero out channels should error")
	}
	if _, err := (Conv{OutC: 8, KH: 9, KW: 9}).InferShape([]Shape{{C: 3, H: 4, W: 4}}); err == nil {
		t.Error("collapsing output should error")
	}
	if _, err := (Conv{OutC: 7, KH: 3, KW: 3, Groups: 2}).InferShape([]Shape{{C: 4, H: 8, W: 8}}); err == nil {
		t.Error("indivisible groups should error")
	}
	if _, err := (Conv{OutC: 8, KH: 3, KW: 3}).InferShape(nil); err == nil {
		t.Error("missing input should error")
	}
}

func TestPoolCeilMode(t *testing.T) {
	// GoogLeNet pool1: 112 -> 56 with k=3 s=2 (ceil).
	p := Pool{Mode: MaxPool, K: 3, Stride: 2}
	out, err := p.InferShape([]Shape{{C: 64, H: 112, W: 112}})
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 56 {
		t.Errorf("pool out H = %d, want 56", out.H)
	}
}

func TestPoolGlobal(t *testing.T) {
	p := Pool{Mode: AvgPool, Global: true}
	out, err := p.InferShape([]Shape{{C: 2048, H: 7, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 2048, H: 1, W: 1}) {
		t.Errorf("global pool out = %v", out)
	}
}

func TestFC(t *testing.T) {
	f := FC{OutF: 4096, Bias: true}
	in := Shape{C: 9216, H: 1, W: 1}
	out, err := f.InferShape([]Shape{in})
	if err != nil {
		t.Fatal(err)
	}
	if out != Vec(4096) {
		t.Errorf("fc out = %v", out)
	}
	if got := f.Params([]Shape{in}, out); got != 9216*4096+4096 {
		t.Errorf("fc params = %d", got)
	}
}

func TestConcatChannels(t *testing.T) {
	c := Concat{}
	out, err := c.InferShape([]Shape{{C: 64, H: 28, W: 28}, {C: 128, H: 28, W: 28}, {C: 32, H: 28, W: 28}})
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 224 {
		t.Errorf("concat C = %d, want 224", out.C)
	}
	if _, err := c.InferShape([]Shape{{C: 64, H: 28, W: 28}, {C: 64, H: 14, W: 14}}); err == nil {
		t.Error("spatial mismatch should error")
	}
	if _, err := c.InferShape([]Shape{{C: 64, H: 28, W: 28}}); err == nil {
		t.Error("single-input concat should error")
	}
}

func TestAddShapes(t *testing.T) {
	a := Add{}
	s := Shape{C: 256, H: 56, W: 56}
	out, err := a.InferShape([]Shape{s, s})
	if err != nil || out != s {
		t.Errorf("add out = %v, %v", out, err)
	}
	if _, err := a.InferShape([]Shape{s, {C: 128, H: 56, W: 56}}); err == nil {
		t.Error("mismatched add should error")
	}
}

func TestFlatten(t *testing.T) {
	out, err := Flatten{}.InferShape([]Shape{{C: 16, H: 5, W: 5}})
	if err != nil || out != Vec(400) {
		t.Errorf("flatten = %v, %v", out, err)
	}
}

func TestBatchNormParams(t *testing.T) {
	in := Shape{C: 64, H: 56, W: 56}
	if got := (BatchNorm{}).Params([]Shape{in}, in); got != 128 {
		t.Errorf("bn params = %d, want 128", got)
	}
}

func buildTiny() *Network {
	b := NewBuilder("tiny")
	x := b.Input("data", Shape{C: 3, H: 8, W: 8})
	x = b.Add("conv", Conv{OutC: 4, KH: 3, KW: 3, PadH: 1, PadW: 1, Bias: true}, x)
	x = b.Add("relu", Activation{Mode: ReLU}, x)
	x = b.Add("flatten", Flatten{}, x)
	x = b.Add("fc", FC{OutF: 10, Bias: true}, x)
	b.Add("softmax", Softmax{}, x)
	return b.Finish()
}

func TestBuilderDuplicateNamePanics(t *testing.T) {
	b := NewBuilder("dup")
	x := b.Input("data", Shape{C: 1, H: 4, W: 4})
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	b.Add("data", Activation{}, x)
}

func TestBuilderBadShapePanics(t *testing.T) {
	b := NewBuilder("bad")
	x := b.Input("data", Shape{C: 1, H: 4, W: 4})
	defer func() {
		if recover() == nil {
			t.Error("collapsing conv should panic at build time")
		}
	}()
	b.Add("conv", Conv{OutC: 4, KH: 9, KW: 9}, x)
}

func TestNetworkAggregates(t *testing.T) {
	n := buildTiny()
	wantParams := int64(3*3*3*4+4) + int64(256*10+10)
	if got := n.ParamCount(); got != wantParams {
		t.Errorf("params = %d, want %d", got, wantParams)
	}
	if got := n.ModelBytes(); got != units.Bytes(wantParams*4) {
		t.Errorf("model bytes = %v", got)
	}
	if n.Depth() != 2 {
		t.Errorf("depth = %d, want 2", n.Depth())
	}
	wl := n.WeightedLayers()
	if len(wl) != 2 || wl[0].Name != "conv" || wl[1].Name != "fc" {
		t.Errorf("weighted layers = %v", wl)
	}
	if n.CountKind(OpConv) != 1 || n.CountKind(OpFC) != 1 {
		t.Error("CountKind wrong")
	}
}

func TestForwardPlanSkipsInputAndFlatten(t *testing.T) {
	n := buildTiny()
	plan := n.ForwardPlan(16, PlanOptions{})
	// conv, relu, fc, softmax
	if len(plan) != 4 {
		t.Fatalf("plan length = %d, want 4", len(plan))
	}
	if plan[0].Name != "conv_fprop" {
		t.Errorf("first kernel = %s", plan[0].Name)
	}
	if plan[0].FLOPs != units.FLOPs(16)*n.Nodes()[1].FwdFLOPs {
		t.Error("batch scaling wrong")
	}
}

func TestBackwardPlanReverseOrderWithLayers(t *testing.T) {
	n := buildTiny()
	steps := n.BackwardPlan(16, PlanOptions{})
	if len(steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(steps))
	}
	if steps[0].Node.Name != "softmax" || steps[len(steps)-1].Node.Name != "conv" {
		t.Error("backward order wrong")
	}
	var grads []string
	for _, s := range steps {
		if s.Layer != nil {
			grads = append(grads, s.Layer.Name)
		}
	}
	if len(grads) != 2 || grads[0] != "fc" || grads[1] != "conv" {
		t.Errorf("gradient order = %v, want [fc conv]", grads)
	}
	// Weighted layers produce two kernels (dgrad+wgrad), others one.
	for _, s := range steps {
		want := 1
		if s.Node.Op.Weighted() {
			want = 2
		}
		if len(s.Kernels) != want {
			t.Errorf("%s kernels = %d, want %d", s.Node.Name, len(s.Kernels), want)
		}
	}
}

func TestTensorCoresSpeedPlanUp(t *testing.T) {
	n := buildTiny()
	spec := gpu.V100()
	slow := PlanDuration(spec, n.ForwardPlan(256, PlanOptions{TensorCores: false}))
	fast := PlanDuration(spec, n.ForwardPlan(256, PlanOptions{TensorCores: true}))
	if fast >= slow {
		t.Errorf("tensor cores (%d) should beat FMA (%d)", fast, slow)
	}
}

func TestBadBatchPanics(t *testing.T) {
	n := buildTiny()
	defer func() {
		if recover() == nil {
			t.Error("batch 0 should panic")
		}
	}()
	n.ForwardPlan(0, PlanOptions{})
}

// Property: doubling the batch doubles plan FLOPs exactly.
func TestPlanFLOPsLinearInBatch(t *testing.T) {
	n := buildTiny()
	f := func(b uint8) bool {
		batch := int(b%32) + 1
		var f1, f2 units.FLOPs
		for _, k := range n.ForwardPlan(batch, PlanOptions{}) {
			f1 += k.FLOPs
		}
		for _, k := range n.ForwardPlan(2*batch, PlanOptions{}) {
			f2 += k.FLOPs
		}
		return f2 == 2*f1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
