package cluster

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/faults"
)

// orderSpec is a trace built to expose the pending queue's order: jobs
// listed out of arrival order, several arriving at the same instant, and
// repeated templates whose SJF estimates tie, all contending for one
// DGX-1 behind an AlexNet blocker (or two, one of them sick).
func orderSpec(sick bool) Spec {
	s := time.Second
	nodes := []NodeSpec{{}}
	if sick {
		nodes = []NodeSpec{{Faults: &faults.Plan{
			FailedLinks: []faults.Link{{A: 0, B: 1}, {A: 0, B: 2}},
			Stragglers:  []faults.Straggler{{GPU: 0, Slowdown: 2}},
		}}, {}}
	}
	return Spec{
		Nodes: nodes,
		Jobs: []Job{
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 8192, Arrival: 4 * s},
			{Model: "alexnet", GPUs: 8, Batch: 16, Images: 16384, Arrival: 0},
			{Model: "lenet", GPUs: 4, Batch: 16, Images: 4096, Arrival: 2 * s},
			{Model: "lenet", GPUs: 4, Batch: 16, Images: 4096, Arrival: 2 * s},
			{Model: "googlenet", GPUs: 4, Batch: 16, Images: 4096, Arrival: s},
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 8192, Arrival: s + s/2},
			{Model: "lenet", GPUs: 4, Batch: 16, Images: 4096, Arrival: 3 * s},
			{Model: "resnet", GPUs: 2, Batch: 16, Images: 2048, Arrival: 0},
			{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096, Arrival: 3 * s, Repeats: 2},
		},
	}
}

// tieSpec is the smallest trace whose result shows how SJF breaks a tie:
// two equal jobs, listed against their arrival order, both wait behind
// an AlexNet blocker, and which runs first moves the maximum JCT.
func tieSpec() Spec {
	return Spec{
		Nodes: []NodeSpec{{}},
		Jobs: []Job{
			{Model: "alexnet", GPUs: 8, Batch: 16, Images: 16384, Arrival: 0},
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 8192, Arrival: 2 * time.Second},
			{Model: "lenet", GPUs: 8, Batch: 16, Images: 8192, Arrival: time.Second},
		},
	}
}

// TestQueueOrderPinned pins whole Results of orderSpec and tieSpec,
// recorded when every scheduling epoch still re-sorted the pending queue
// (before it kept its order by insertion): a change in which job a scan
// reaches first moves a JCT or queue-delay quantile, the makespan or a
// node's share.
func TestQueueOrderPinned(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		policy string
		queue  string
		want   string
	}{
		{"fifo/first-fit", orderSpec(false), PolicyFirstFit, QueueFIFO, `{"policy":"first-fit","queue":"fifo","seed":1,"nodes":1,"gpus":8,"jobs":9,"makespanNs":6742302941,"jct":{"meanNs":3135129517,"p50Ns":2742302941,"p90Ns":6170783159,"p99Ns":6170783159,"maxNs":6170783159},"queueDelay":{"meanNs":2017883012,"p50Ns":2387566023,"p90Ns":4670783159,"p99Ns":4670783159,"maxNs":4670783159},"fleetUtilization":0.8055493220606387,"perNode":[{"node":0,"faulted":false,"jobs":9,"utilization":0.8055493220606387}],"schedulingEpochs":15,"distinctServices":6}`},
		{"sjf/first-fit", orderSpec(false), PolicyFirstFit, QueueSJF, `{"policy":"first-fit","queue":"sjf","seed":1,"nodes":1,"gpus":8,"jobs":9,"makespanNs":7021044720,"jct":{"meanNs":2303048316,"p50Ns":1581850417,"p90Ns":6735284829,"p99Ns":6735284829,"maxNs":6735284829},"queueDelay":{"meanNs":1185801810,"p50Ns":517348747,"p90Ns":3081850417,"p99Ns":3081850417,"maxNs":3081850417},"fleetUtilization":0.7735682907386466,"perNode":[{"node":0,"faulted":false,"jobs":9,"utilization":0.7735682907386466}],"schedulingEpochs":14,"distinctServices":6}`},
		{"fifo/best-fit/sick", orderSpec(true), PolicyBestFit, QueueFIFO, `{"policy":"best-fit","queue":"fifo","seed":1,"nodes":2,"gpus":16,"jobs":9,"makespanNs":4598219831,"jct":{"meanNs":1865489934,"p50Ns":1427700834,"p90Ns":4598219831,"p99Ns":4598219831,"maxNs":4598219831},"queueDelay":{"meanNs":517035530,"p50Ns":0,"p90Ns":2206442613,"p99Ns":2206442613,"maxNs":2206442613},"fleetUtilization":0.8168518386838735,"perNode":[{"node":0,"faulted":true,"jobs":1,"utilization":1},{"node":1,"faulted":false,"jobs":8,"utilization":0.633703677367747}],"schedulingEpochs":15,"distinctServices":7}`},
		{"sjf/frag-aware/sick", orderSpec(true), PolicyFragAware, QueueSJF, `{"policy":"frag-aware","queue":"sjf","seed":1,"nodes":2,"gpus":16,"jobs":9,"makespanNs":6530120688,"jct":{"meanNs":1826773578,"p50Ns":796090526,"p90Ns":6530120688,"p99Ns":6530120688,"maxNs":6530120688},"queueDelay":{"meanNs":268070937,"p50Ns":0,"p90Ns":1296090526,"p99Ns":1296090526,"maxNs":1296090526},"fleetUtilization":0.5122845546174077,"perNode":[{"node":0,"faulted":true,"jobs":3,"utilization":0.4875221900339861},{"node":1,"faulted":false,"jobs":6,"utilization":0.5370469192008294}],"schedulingEpochs":14,"distinctServices":9}`},
		{"sjf/tie", tieSpec(), PolicyFirstFit, QueueSJF, `{"policy":"first-fit","queue":"sjf","seed":1,"nodes":1,"gpus":8,"jobs":3,"makespanNs":3088868529,"jct":{"meanNs":1803108638,"p50Ns":2088868529,"p90Ns":2517348747,"p99Ns":2517348747,"maxNs":2517348747},"queueDelay":{"meanNs":773485795,"p50Ns":517348747,"p90Ns":1803108638,"p99Ns":1803108638,"maxNs":1803108638},"fleetUtilization":1,"perNode":[{"node":0,"faulted":false,"jobs":3,"utilization":1}],"schedulingEpochs":6,"distinctServices":2}`},
	}
	for _, tc := range cases {
		spec := tc.spec
		spec.Policy, spec.Queue = tc.policy, tc.queue
		res, err := Simulate(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
