package train

import (
	"reflect"
	"testing"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/profiler"
)

// Every batch of a network shares one plan table, which is sound only if
// the table does not depend on the batch: the same names at the same
// slots, and the same cuts.
func TestPlanTableBatchIndependent(t *testing.T) {
	type cut struct {
		end    int
		params int64
	}
	names := func(p *planTable) []string {
		prof := profiler.New().Seed(profiler.Seeds{Kernels: p.names})
		out := make([]string, p.names.Len())
		for i := range out {
			out[i] = prof.Name(profiler.KindKernel, profiler.Slot(i))
		}
		return out
	}
	shape := func(p *planTable) []cut {
		out := make([]cut, len(p.cuts))
		for i, c := range p.cuts {
			out[i].end = c.end
			if c.layer != nil {
				out[i].params = c.layer.Params
			}
		}
		return out
	}
	for _, m := range models.All() {
		for _, opts := range []dnn.PlanOptions{{}, {TensorCores: true}, {TensorCores: true, Winograd: true}} {
			a := buildPlanTable(m.Net.Nodes(), m.Net.ForwardPlan(16, opts), m.Net.BackwardPlan(16, opts))
			b := buildPlanTable(m.Net.Nodes(), m.Net.ForwardPlan(61, opts), m.Net.BackwardPlan(61, opts))
			if !reflect.DeepEqual(names(a), names(b)) ||
				!reflect.DeepEqual(a.fwd, b.fwd) || !reflect.DeepEqual(a.recompute, b.recompute) ||
				!reflect.DeepEqual(a.bwd, b.bwd) || !reflect.DeepEqual(shape(a), shape(b)) ||
				!reflect.DeepEqual(a.fwdAt, b.fwdAt) || !reflect.DeepEqual(a.bwdAt, b.bwdAt) {
				t.Errorf("%s %+v: the plan table differs between batches 16 and 61", m.Name, opts)
			}
		}
	}
}

// Trainers of one machine, device set and method share one machine
// template, and trainers of one plan and spec share one kernel table and
// one plan table, until ResetCache (the templates and plan tables) and
// models.ResetCache (the kernel tables, which live beside the zoo's
// plans) drop them; the trainer after that builds its own afresh.
func TestResetCacheRebuildsTemplates(t *testing.T) {
	build := func() *Trainer {
		t.Helper()
		cfg, err := NewConfig("alexnet", 4, 32, MethodNCCL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Hardware = "dgx1-pascal"
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ResetCache()
	models.ResetCache()
	a, b := build(), build()
	// A runtime's layout is observable as its profile's transfer names.
	layout := func(t *Trainer) *profiler.Names { return t.prof.Seeded(profiler.KindTransfer) }
	if layout(a) != layout(b) || a.tables[0] != b.tables[0] || a.tables[0].plan != b.tables[0].plan {
		t.Fatal("two trainers of one configuration do not share their templates")
	}
	if a.fab == b.fab || a.prof == b.prof {
		t.Fatal("two trainers share per-compile state")
	}
	ResetCache()
	models.ResetCache()
	c := build()
	if layout(c) == layout(a) {
		t.Error("ResetCache kept the machine template")
	}
	if c.tables[0] == a.tables[0] {
		t.Error("models.ResetCache kept the kernel table")
	}
	if c.tables[0].plan == a.tables[0].plan {
		t.Error("ResetCache kept the plan table")
	}
}

// tableSink keeps the lowered tables from being optimized away.
var tableSink *kernelTable

// BenchmarkLowerResNet measures lowering ResNet-50's plan at batch 32 for
// the V100 (lowerTable, the one lowering every schedule reads): each
// kernel's duration, the run sums, the update durations and the
// utilization weight.
func BenchmarkLowerResNet(b *testing.B) {
	d, err := models.ByName("resnet")
	if err != nil {
		b.Fatal(err)
	}
	opts := dnn.PlanOptions{TensorCores: true}
	fwd, bwd := d.Net.ForwardPlan(32, opts), d.Net.BackwardPlan(32, opts)
	plan := buildPlanTable(d.Net.Nodes(), fwd, bwd)
	spec, launch := gpu.V100(), cuda.DefaultCosts().LaunchKernel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableSink = lowerTable(plan, fwd, bwd, spec, launch)
	}
}

// The shared plan table holds the network's pipeline cuts, so a
// model-parallel compile partitions without recomputing them.
func TestPlanTableKeepsCutPoints(t *testing.T) {
	for _, m := range models.All() {
		p := planTableFor(m.Net, 32, dnn.PlanOptions{TensorCores: true})
		if want := m.Net.CutPoints(); !reflect.DeepEqual(p.cutPoints, want) {
			t.Errorf("%s: plan table cuts %v, want %v", m.Name, p.cutPoints, want)
		}
	}
}
