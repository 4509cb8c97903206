package train

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/kvstore"
	"repro/internal/models"
	"repro/internal/nccl"
	"repro/internal/topology"
	"repro/internal/units"
)

// replayCases are the stop rule's cases (the profile golden set's
// workloads plus P2P, ASGD, straggler and Detailed ones) and sync P2P
// and NCCL at 1–8 GPUs, a straggler, checkpointing and the PCIe route
// policy.
func replayCases(t testing.TB) map[string]Config {
	cs := stopRuleCases(t)
	for gpus := 1; gpus <= 8; gpus++ {
		cs[fmt.Sprintf("resnet/p2p/%d", gpus)] = stopRuleConfig(t, "resnet", gpus, 24, kvstore.MethodP2P, nccl.ProtoSimple, "")
		cs[fmt.Sprintf("alexnet/nccl/%d", gpus)] = stopRuleConfig(t, "alexnet", gpus, 24, kvstore.MethodNCCL, nccl.ProtoSimple, "")
		cs[fmt.Sprintf("googlenet/nccl-auto/dgx2/%d", gpus)] = stopRuleConfig(t, "googlenet", 2*gpus, 40, kvstore.MethodNCCL, nccl.ProtoAuto, "dgx2")
	}
	straggler := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 5, Slowdown: 1.3}}}
	cfg := stopRuleConfig(t, "inception-v3", 8, 16, kvstore.MethodNCCL, nccl.ProtoSimple, "")
	cfg.Faults = straggler
	cs["inception-v3/nccl/straggler5"] = cfg
	cfg = stopRuleConfig(t, "lenet", 8, 16, kvstore.MethodP2P, nccl.ProtoSimple, "")
	cfg.Faults = &faults.Plan{Stragglers: []faults.Straggler{{GPU: 0, Slowdown: 1.3}}}
	cs["lenet/p2p/straggler0"] = cfg
	cfg = stopRuleConfig(t, "googlenet", 4, 32, kvstore.MethodP2P, nccl.ProtoSimple, "")
	cfg.Checkpointing = true
	cs["googlenet/p2p/checkpointing"] = cfg
	cfg = stopRuleConfig(t, "alexnet", 8, 32, kvstore.MethodP2P, nccl.ProtoSimple, "")
	cfg.RoutePolicy = topology.RoutePCIeFallback
	cs["alexnet/p2p/pcie-route"] = cfg
	cfg = stopRuleConfig(t, "resnet", 6, 16, kvstore.MethodNCCL, nccl.ProtoLL, "dgx-a100")
	cfg.BucketBytes = 2048 * units.KB
	cs["resnet/nccl-ll/bucket/a100"] = cfg
	return cs
}

// The replica replay is exact: over replayCases at caps 4 and 8, a window
// whose replicas replay their group's pass equals the window booked
// device by device, and on the multi-GPU sync cases it launches fewer
// passes.
func TestReplicaReplayMatchesPerDevice(t *testing.T) {
	caps := []int{4, 8}
	if testing.Short() {
		caps = caps[:1]
	}
	fewer, multi := 0, 0
	for name, cfg := range replayCases(t) {
		for _, c := range caps {
			cfg.SimIters = c
			var rep, each int64
			t.Run(fmt.Sprintf("%s/cap%d", name, c), func(t *testing.T) { rep, each = checkReplay(t, cfg) })
			if cfg.GPUs > 1 && cfg.Parallelism == DataParallel && !cfg.Async && cfg.DetailIntervals == 0 {
				multi++
				if rep < each {
					fewer++
				}
			}
		}
	}
	// Every multi-GPU sync window with an aggregate-only profile has a
	// group of at least two devices in its first iteration: they are
	// staged alike and start idle.
	if fewer != multi {
		t.Errorf("the replay saved passes on %d of %d multi-GPU sync windows", fewer, multi)
	}
}

// The exchange's lowered costs equal the on-the-fly ones: for every zoo
// model on every registered machine, each rank's add duration from its
// kernel table and the NCCL wire times from the memo (or, for a faulted
// machine, priced per trainer) equal what the backend prices for the
// layer's size.
func TestLoweredExchangeMatchesPriced(t *testing.T) {
	straggler := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Slowdown: 1.7}}}
	for _, m := range Machines() {
		for _, model := range models.Names() {
			for _, c := range []struct {
				name   string
				method kvstore.Method
				sel    nccl.Selection
				faults *faults.Plan
			}{
				{"p2p", kvstore.MethodP2P, nccl.Selection{}, nil},
				{"nccl-simple", kvstore.MethodNCCL, nccl.Selection{}, nil},
				{"nccl-auto", kvstore.MethodNCCL, nccl.Selection{Protocol: nccl.ProtoAuto}, nil},
				{"nccl-tree-ll128", kvstore.MethodNCCL, nccl.Selection{Algorithm: nccl.AlgoTree, Protocol: nccl.ProtoLL128}, nil},
				{"p2p/straggler", kvstore.MethodP2P, nccl.Selection{}, straggler},
				{"nccl/straggler", kvstore.MethodNCCL, nccl.Selection{}, straggler},
			} {
				if c.faults != nil && m.Name != DefaultHardware {
					continue
				}
				for _, gpus := range []int{1, m.GPUs} {
					cfg := stopRuleConfig(t, model, gpus, 16, c.method, c.sel.Protocol, m.Name)
					cfg.NCCL, cfg.Faults = c.sel, c.faults
					t.Run(fmt.Sprintf("%s/%s/%s/%d", m.Name, model, c.name, gpus), func(t *testing.T) {
						checkLoweredExchange(t, cfg)
					})
				}
			}
		}
	}
}

// checkLoweredExchange builds cfg's trainer and compares every layer's
// lowered exchange with the backend's on-the-fly price. A registered
// machine's healthy trainers share their wire times; a faulted one's are
// its own.
func checkLoweredExchange(t *testing.T, cfg Config) {
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := 0
	for _, c := range tr.tables[0].plan.cuts {
		if c.layer == nil {
			continue
		}
		size := units.BytesOf(c.layer.Params, units.Float32Size)
		lowered := *tr.array(j)
		lowered.Adds = slices.Clone(lowered.Adds)
		priced := kvstore.Array{Size: size}
		if tr.backend.Price(&priced); !reflect.DeepEqual(lowered, priced) {
			t.Fatalf("layer %d (%v): lowered %+v, priced %+v", j, size, lowered, priced)
		}
		j++
	}
	if j != len(tr.tables[0].updates) {
		t.Fatalf("%d layers with parameters, %d updates", j, len(tr.tables[0].updates))
	}
	if cfg.Method != kvstore.MethodNCCL || j == 0 {
		return
	}
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared := &again.wires[0] == &tr.wires[0]; shared != cfg.Faults.IsZero() {
		t.Fatalf("wire times shared between trainers: %v, faulted: %v", shared, !cfg.Faults.IsZero())
	}
}
