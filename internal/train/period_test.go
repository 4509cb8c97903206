package train

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/kvstore"
	"repro/internal/models"
	"repro/internal/nccl"
	"repro/internal/units"
)

// hooks are the test-only switches a window compiles under: toCap
// disables the stop rule and perDevice the replica replay.
type hooks struct{ toCap, perDevice bool }

// compileWindow compiles cfg's window under the hooks.
func compileWindow(cfg Config, h hooks) (*Window, error) {
	tr, err := New(cfg)
	if err != nil {
		return nil, err
	}
	tr.toCap, tr.perDevice = h.toCap, h.perDevice
	return tr.SimulateWindow()
}

// windowListing renders everything a window's extrapolation to images
// reports: the result's fields, its profile's listings and its intervals.
func windowListing(w *Window, images int64) (string, error) {
	res, err := w.Extrapolate(images)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	prof := res.Profile
	r := *res
	r.Profile = nil
	fmt.Fprintf(&b, "%+v\n%s", r, prof.Summary())
	for _, name := range prof.TransferNames() {
		fmt.Fprintf(&b, "%s %+v\n", name, prof.Transfer(name))
	}
	fmt.Fprintf(&b, "dropped %d\n", prof.Dropped())
	for _, iv := range prof.Intervals() {
		fmt.Fprintf(&b, "%+v\n", iv)
	}
	return b.String(), nil
}

// compileBoth compiles cfg under two sets of hooks and fails unless both
// compile or both fail alike. It returns the windows, nil on failure.
func compileBoth(t testing.TB, cfg Config, a, b hooks) (*Window, *Window) {
	t.Helper()
	x, err1 := compileWindow(cfg, a)
	y, err2 := compileWindow(cfg, b)
	if fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("%+v: error %v, %+v: error %v", a, err1, b, err2)
	}
	if err1 != nil {
		return nil, nil
	}
	return x, y
}

// checkSameWindows fails unless two windows of cfg, apart from how many
// iterations and passes they simulated, and their extrapolations to the
// configured epoch and to a second size that simulates as many
// iterations, are identical.
func checkSameWindows(t testing.TB, cfg Config, got, want *Window, what string) {
	t.Helper()
	a, b := *got, *want
	a.simulated, b.simulated, a.passes, b.passes = 0, 0, 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: window after %d of %d iterations differs:\ngot  %+v\nwant %+v",
			what, got.simulated, got.nsim, a.last, b.last)
	}
	images := cfg.Images
	if images <= 0 {
		images = data.PaperDatasetImages
	}
	for _, n := range []int64{images, 3*images + 7} {
		x, err1 := windowListing(got, n)
		y, err2 := windowListing(want, n)
		if err1 != nil || err2 != nil {
			t.Fatalf("extrapolate %d images: %v, %v", n, err1, err2)
		}
		if x != y {
			t.Fatalf("%s: %d images: got\n%s\nwant\n%s", what, n, x, y)
		}
	}
}

// checkStopRule compiles cfg with the stop rule and to its cap, and
// fails unless both windows are identical (checkSameWindows). It returns
// how many iterations the stop rule simulated.
func checkStopRule(t testing.TB, cfg Config) int {
	t.Helper()
	stop, full := compileBoth(t, cfg, hooks{}, hooks{toCap: true})
	if stop == nil {
		return 0
	}
	if full.simulated != full.nsim {
		t.Fatalf("to the cap simulated %d of %d iterations", full.simulated, full.nsim)
	}
	if stop.simulated < 1 || stop.simulated > stop.nsim {
		t.Fatalf("stop rule simulated %d of %d iterations", stop.simulated, stop.nsim)
	}
	checkSameWindows(t, cfg, stop, full, "stop rule against the cap")
	return stop.simulated
}

// checkReplay compiles cfg with the replica replay and booking every
// device's pass, and fails unless both windows are identical
// (checkSameWindows). Booked device by device, a window launches a pass
// per GPU and simulated iteration; with the replay it launches at most
// that many. It returns how many passes the replay launched, and how
// many booking device by device did.
func checkReplay(t testing.TB, cfg Config) (int64, int64) {
	t.Helper()
	rep, each := compileBoth(t, cfg, hooks{}, hooks{perDevice: true})
	if rep == nil {
		return 0, 0
	}
	if want := int64(cfg.GPUs) * int64(each.simulated); each.passes != want {
		t.Fatalf("device by device launched %d passes in %d iterations of %d GPUs", each.passes, each.simulated, cfg.GPUs)
	}
	if rep.passes < int64(rep.simulated) || rep.passes > each.passes {
		t.Fatalf("replay launched %d passes, device by device %d", rep.passes, each.passes)
	}
	checkSameWindows(t, cfg, rep, each, "replay against device by device")
	return rep.passes, each.passes
}

// stopRuleConfig is the paper default configuration of a model with the
// given collective flavour and machine.
func stopRuleConfig(t testing.TB, model string, gpus, batch int, method kvstore.Method, proto nccl.Protocol, hw string) Config {
	t.Helper()
	cfg, err := NewConfig(model, gpus, batch, method)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hardware = hw
	cfg.NCCL.Protocol = proto
	return cfg
}

// stopRuleCases are the profile golden set's workloads as trainer
// configurations (every model under p2p, NCCL Simple and NCCL auto on
// three machines, plus every non-sync schedule and the lowering-sensitive
// options), with P2P, ASGD, straggler and Detailed cases added.
func stopRuleCases(t testing.TB) map[string]Config {
	cs := map[string]Config{}
	flavours := []struct {
		name   string
		method kvstore.Method
		proto  nccl.Protocol
	}{
		{"p2p", kvstore.MethodP2P, nccl.ProtoSimple},
		{"nccl-simple", kvstore.MethodNCCL, nccl.ProtoSimple},
		{"nccl-auto", kvstore.MethodNCCL, nccl.ProtoAuto},
	}
	for _, m := range models.Names() {
		for _, f := range flavours {
			for _, hw := range []string{"dgx1", "dgx2", "dgx-h100"} {
				cs[fmt.Sprintf("%s/%s/%s", m, f.name, hw)] = stopRuleConfig(t, m, 8, 16, f.method, f.proto, hw)
			}
		}
	}
	straggler := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 2, Slowdown: 1.5}}}
	with := func(cfg Config, edit func(*Config)) Config {
		edit(&cfg)
		return cfg
	}
	nc := func(model string, gpus, batch int) Config {
		return stopRuleConfig(t, model, gpus, batch, kvstore.MethodNCCL, nccl.ProtoSimple, "")
	}
	p2p := func(model string, gpus, batch int) Config {
		return stopRuleConfig(t, model, gpus, batch, kvstore.MethodP2P, nccl.ProtoSimple, "")
	}
	cs["lenet/single-gpu"] = nc("lenet", 1, 64)
	cs["alexnet/async"] = with(p2p("alexnet", 4, 32), func(c *Config) { c.Async = true })
	cs["alexnet/model-parallel"] = with(nc("alexnet", 4, 32), func(c *Config) { c.Parallelism = ModelParallel })
	cs["alexnet/hybrid-owt"] = with(nc("alexnet", 4, 32), func(c *Config) { c.Parallelism = HybridOWT })
	cs["resnet/checkpointing"] = with(nc("resnet", 4, 32), func(c *Config) { c.Checkpointing = true })
	cs["resnet/nccl-tree-bucket"] = with(nc("resnet", 8, 16), func(c *Config) {
		c.NCCL.Algorithm = nccl.AlgoTree
		c.BucketBytes = 4096 * units.KB
	})
	cs["googlenet/straggler/p2p"] = with(p2p("googlenet", 8, 16), func(c *Config) { c.Faults = straggler })
	cs["googlenet/straggler/nccl"] = with(nc("googlenet", 8, 16), func(c *Config) { c.Faults = straggler })
	cs["resnet/model-parallel/straggler"] = with(nc("resnet", 8, 32), func(c *Config) {
		c.Parallelism, c.Faults = ModelParallel, straggler
	})
	cs["inception-v3/model-parallel/micro3"] = with(nc("inception-v3", 4, 32), func(c *Config) {
		c.Parallelism, c.MicroBatches = ModelParallel, 3
	})
	cs["googlenet/hybrid-owt/straggler"] = with(nc("googlenet", 8, 16), func(c *Config) {
		c.Parallelism, c.Faults = HybridOWT, straggler
	})
	cs["lenet/hybrid-owt/dgx2"] = with(nc("lenet", 16, 16), func(c *Config) {
		c.Parallelism, c.Hardware = HybridOWT, "dgx2"
	})
	// Added beyond the golden set.
	cs["lenet/p2p/4"] = p2p("lenet", 4, 16)
	cs["alexnet/p2p/2"] = p2p("alexnet", 2, 64)
	cs["resnet/p2p/straggler"] = with(p2p("resnet", 4, 16), func(c *Config) { c.Faults = straggler })
	cs["lenet/async/8"] = with(p2p("lenet", 8, 16), func(c *Config) { c.Async = true })
	cs["resnet/async/straggler"] = with(p2p("resnet", 4, 16), func(c *Config) { c.Async, c.Faults = true, straggler })
	cs["lenet/local/4"] = stopRuleConfig(t, "lenet", 4, 16, kvstore.MethodLocal, nccl.ProtoSimple, "")
	// Detailed profiles: timelines that fit their cap, one whose cap is
	// reached in the simulated iterations, and one whose cap is reached
	// in the repeated ones.
	cs["alexnet/p2p/detailed"] = with(p2p("alexnet", 4, 16), func(c *Config) { c.DetailIntervals = 1 << 16 })
	cs["lenet/nccl/detailed-capped"] = with(nc("lenet", 2, 16), func(c *Config) { c.DetailIntervals = 300 })
	cs["lenet/nccl/detailed-capped-late"] = with(nc("lenet", 2, 16), func(c *Config) { c.DetailIntervals = 700 })
	cs["alexnet/async/detailed"] = with(p2p("alexnet", 2, 16), func(c *Config) { c.Async, c.DetailIntervals = true, 1<<16 })
	cs["alexnet/model-parallel/detailed"] = with(nc("alexnet", 4, 32), func(c *Config) {
		c.Parallelism, c.DetailIntervals = ModelParallel, 1<<16
	})
	return cs
}

// The stop rule is exact: over the golden set and the added P2P, ASGD,
// straggler and Detailed cases, at caps 4, 8 and 16, a window that stops
// once its state is periodic equals the window simulated to its cap.
func TestWindowStopMatchesCap(t *testing.T) {
	caps := []int{4, 8, 16}
	if testing.Short() {
		caps = caps[:1]
	}
	early := 0
	total := 0
	for name, cfg := range stopRuleCases(t) {
		for _, c := range caps {
			cfg.SimIters = c
			n := 0
			t.Run(fmt.Sprintf("%s/cap%d", name, c), func(t *testing.T) { n = checkStopRule(t, cfg) })
			total++
			if n > 0 && n < c {
				early++
			}
		}
	}
	// The rule must actually stop early on most of the set, or it buys
	// nothing.
	if early*2 < total {
		t.Errorf("only %d of %d windows stopped before their cap", early, total)
	}
}

// An ASGD window over the p2p method whose GPUs' two copy engines swap
// roles from one iteration to the next is periodic once each device's
// engines are compared as a sorted pair: it stops after two iterations.
// Compared engine by engine, its state never repeats before the cap.
func TestWindowStopP2PAlternatingEngines(t *testing.T) {
	cfg := stopRuleConfig(t, "resnet", 2, 24, kvstore.MethodP2P, nccl.ProtoSimple, "dgx2")
	cfg.Async = true
	if n := checkStopRule(t, cfg); n != 2 {
		t.Fatalf("stopped after %d iterations, want 2", n)
	}
}

// A window run under the default cap reports how many iterations it
// simulated, and a window too short to repeat anything simulates all.
func TestWindowSimulated(t *testing.T) {
	cfg := stopRuleConfig(t, "resnet", 4, 16, kvstore.MethodNCCL, nccl.ProtoSimple, "")
	w, err := compileWindow(cfg, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Simulated() != 2 || w.nsim != DefaultSimIters {
		t.Fatalf("simulated %d of %d, want 2 of %d", w.Simulated(), w.nsim, DefaultSimIters)
	}
	cfg.SimIters = 2
	if w, err = compileWindow(cfg, hooks{}); err != nil {
		t.Fatal(err)
	}
	if w.Simulated() != 2 {
		t.Fatalf("cap 2 simulated %d", w.Simulated())
	}
}

// fuzzConfig draws one trainer configuration from the fuzzer's inputs:
// the model, machine, GPU count, batch, collective, schedule, and the
// options each schedule accepts (gradient buckets and checkpointing under
// sync, a straggler on the DGX-1), with an optional trace cap and a
// window cap of 2–16.
func fuzzConfig(t *testing.T, model, machine, gpus, batch, comm, schedule uint8, bucketKB uint16, checkpoint, straggler bool, trace uint16, simIters uint8) Config {
	names := models.Names()
	m := machines[int(machine)%len(machines)]
	g := 1 + int(gpus)%m.GPUs
	method, sel := kvstore.MethodP2P, nccl.Selection{}
	switch comm % 7 {
	case 1, 2, 3, 4:
		method, sel.Protocol = kvstore.MethodNCCL, nccl.Protocol(comm%7-1)
	case 5:
		method, sel.Algorithm = kvstore.MethodNCCL, nccl.AlgoTree
	case 6:
		method = kvstore.MethodLocal
	}
	cfg := stopRuleConfig(t, names[int(model)%len(names)], g, 8*(1+int(batch)%8), method, sel.Protocol, m.Name)
	cfg.NCCL = sel
	switch schedule % 4 {
	case 0:
		cfg.Checkpointing = checkpoint
		cfg.BucketBytes = units.Bytes(bucketKB%8192) * units.KB
	case 1:
		cfg.Async, cfg.Method, cfg.NCCL = true, kvstore.MethodP2P, nccl.Selection{}
	case 2:
		cfg.Parallelism = ModelParallel
	case 3:
		cfg.Parallelism, cfg.Method = HybridOWT, kvstore.MethodNCCL
	}
	if straggler && m.Name == DefaultHardware {
		cfg.Faults = &faults.Plan{Stragglers: []faults.Straggler{{GPU: g - 1, Slowdown: 1.5}}}
	}
	cfg.DetailIntervals = int(trace % 4096)
	cfg.SimIters = 2 + int(simIters)%15
	return cfg
}

// FuzzWindowStop checks the stop rule against the window simulated to its
// cap, and the replica replay against booking every device's pass, over
// drawn configurations: every window and extrapolation must be
// identical. A configuration New rejects must be rejected alike. The seed
// corpus is in testdata/fuzz/FuzzWindowStop.
func FuzzWindowStop(f *testing.F) {
	f.Fuzz(func(t *testing.T, model, machine, gpus, batch, comm, schedule uint8, bucketKB uint16, checkpoint, straggler bool, trace uint16, simIters uint8) {
		cfg := fuzzConfig(t, model, machine, gpus, batch, comm, schedule, bucketKB, checkpoint, straggler, trace, simIters)
		checkStopRule(t, cfg)
		checkReplay(t, cfg)
	})
}
