package train

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/units"
)

// zooTable lowers a zoo model's plan at batch 16 for the V100.
func zooTable(t *testing.T, m models.Description, opts dnn.PlanOptions) *kernelTable {
	t.Helper()
	fwd, bwd := m.Net.ForwardPlan(16, opts), m.Net.BackwardPlan(16, opts)
	return lowerTable(buildPlanTable(m.Net.Nodes(), fwd, bwd), fwd, bwd, gpu.V100(), cuda.DefaultCosts().LaunchKernel)
}

// Model parallelism launches each stage's node range as one forward and
// one backward slice of a kernel table. For every zoo model and stage
// count, the stages' slices must be the table's kernels in launch order
// (forward from the first stage, backward from the last), each slice's
// run sum the closed form of its kernels, the sums adding to the table's,
// and the stages' weights adding to the network's.
func TestStageSlicesCoverTheTable(t *testing.T) {
	for _, m := range models.All() {
		for _, opts := range []dnn.PlanOptions{{TensorCores: true}, {TensorCores: true, Winograd: true}} {
			tab := zooTable(t, m, opts)
			nodes := m.Net.Nodes()
			cost := make([]float64, len(nodes))
			for i := range cost {
				cost[i] = tab.nodeCost(i)
			}
			var bwdTotal time.Duration
			for _, rs := range tab.bwd {
				bwdTotal += rs.Sum()
			}
			for stages := 2; stages <= 8; stages++ {
				part, err := partitionStages(m.Net, m.Net.CutPoints(), stages, cost)
				if err != nil {
					t.Fatalf("%s %d stages: %v", m.Name, stages, err)
				}
				var fwd, bwd []cuda.Run
				var weights units.Bytes
				from := 0
				for _, b := range part.bounds {
					fwd = append(fwd, tab.fwdSlice(from, b+1))
					bwd = append([]cuda.Run{tab.bwdSlice(from, b+1)}, bwd...)
					weights += tab.plan.weights(from, b+1)
					from = b + 1
				}
				checkSlices(t, m.Name+" forward", fwd, tab.plan.fwd, tab.fwdDur, tab.fwd.Sum(), tab.launch)
				checkSlices(t, m.Name+" backward", bwd, tab.plan.bwd, tab.bwdDur, bwdTotal, tab.launch)
				if want := m.Net.ModelBytes(); weights != want {
					t.Errorf("%s %d stages: stage weights %v, network %v", m.Name, stages, weights, want)
				}
			}
		}
	}
}

// checkSlices checks that runs concatenate to slots and durs, and that
// their run sums are their kernels' closed forms adding to total.
func checkSlices(t *testing.T, what string, runs []cuda.Run, slots []profiler.Slot, durs []time.Duration, total, launch time.Duration) {
	t.Helper()
	var gotSlots []profiler.Slot
	var gotDurs []time.Duration
	var sum time.Duration
	for _, r := range runs {
		gotSlots = append(gotSlots, r.Slots...)
		gotDurs = append(gotDurs, r.Durs...)
		if r.RunSum != cuda.Summarize(r.Durs, launch) {
			t.Errorf("%s: a slice's run sum is not its kernels' closed form", what)
		}
		sum += r.Sum()
	}
	if !slices.Equal(gotSlots, slots) || !slices.Equal(gotDurs, durs) {
		t.Errorf("%s: %d stage slices do not concatenate to the table's kernels", what, len(runs))
	}
	if sum != total {
		t.Errorf("%s: stage run sums add to %v, the table's to %v", what, sum, total)
	}
}

// The hybrid schedule launches the body's backward pass as the table's
// runs after the head's, so a run must end exactly at the head/body
// boundary, at the head's first FC layer. This holds for every zoo model
// with an FC head; a model that breaks it must fail here first.
func TestHeadBodyBoundaryIsARunCut(t *testing.T) {
	for _, m := range models.All() {
		headStart, err := splitHead(m.Net)
		if err != nil {
			continue // no tensor-parallel head
		}
		tab := zooTable(t, m, dnn.PlanOptions{TensorCores: true})
		at := tab.plan.bwdAt[headStart]
		i := slices.IndexFunc(tab.plan.cuts, func(c runCut) bool { return c.end == at })
		if i < 0 || tab.plan.cuts[i].layer == nil || tab.plan.cuts[i].layer.Name != m.Net.Nodes()[headStart].Name {
			t.Errorf("%s: no backward run ends at the head's first FC layer (kernel %d)", m.Name, at)
			continue
		}
		body := tab.bwdRuns().after(i)
		var runs []cuda.Run
		for ri := range body.cuts {
			runs = append(runs, body.run(ri))
		}
		checkSlices(t, m.Name+" body backward", runs, tab.plan.bwd[at:], tab.bwdDur[at:], tab.bwdSlice(0, headStart).Sum(), tab.launch)
	}
}

// The plan table locates each node's kernels by the index rule: the j-th
// lowered node's forward kernel is the j-th, and its backward step is the
// j-th from the end.
func TestPlanTableLocatesNodes(t *testing.T) {
	for _, m := range models.All() {
		opts := dnn.PlanOptions{TensorCores: true}
		fwd, bwd := m.Net.ForwardPlan(16, opts), m.Net.BackwardPlan(16, opts)
		p := buildPlanTable(m.Net.Nodes(), fwd, bwd)
		var gotFwd []gpu.KernelCost
		var gotBwd []dnn.BackwardStep
		for i, nd := range m.Net.Nodes() {
			gotFwd = append(gotFwd, fwd[p.fwdAt[i]:p.fwdAt[i+1]]...)
			n := 0
			for _, st := range bwd {
				if st.Node == nd {
					gotBwd = append([]dnn.BackwardStep{st}, gotBwd...)
					n += len(st.Kernels)
				}
			}
			if p.bwdAt[i]-p.bwdAt[i+1] != n {
				t.Errorf("%s: node %s has %d backward kernels, the table locates %d", m.Name, nd.Name, n, p.bwdAt[i]-p.bwdAt[i+1])
			}
		}
		if !reflect.DeepEqual(gotFwd, fwd) || !reflect.DeepEqual(gotBwd, bwd) {
			t.Errorf("%s: the located kernels are not the plans", m.Name)
		}
	}
}
