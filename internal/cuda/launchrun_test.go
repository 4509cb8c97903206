package cuda

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/topology"
)

// runScenario is one pre-booked runtime state and one run of kernels to
// launch from it.
type runScenario struct {
	comm     bool
	detailed bool
	launch   time.Duration // Costs.LaunchKernel
	// Each positive entry books its resource from time zero before the
	// run: the launch thread (a HostWait), the engine thread (a comm
	// stream's Synchronize), and the compute and comm queues (a kernel
	// of that length each).
	hostBusy, engineBusy, computeBusy, commBusy time.Duration
	// tail raises the stream's tail (WaitEvent) before the run.
	tail      time.Duration
	hostReady time.Duration
	durs      []time.Duration
	names     []int // index into runKernelNames, per kernel
}

var runKernelNames = []string{"conv", "relu", "pool", "fc"}

// scenarioTopology is built once: every scenario runs on a fresh fabric over the same read-only DGX-1 graph.
var scenarioTopology = topology.DGX1()

// bookScenario builds a runtime in the scenario's pre-booked state and
// returns it with the stream and kernels the run launches.
func bookScenario(t *testing.T, sc runScenario) (*Runtime, *Stream, []Kernel) {
	t.Helper()
	prof := profiler.New()
	if sc.detailed {
		prof = profiler.NewDetailed(1 << 12)
	}
	costs := DefaultCosts()
	costs.LaunchKernel = sc.launch
	rt, err := NewRuntime(interconnect.New(scenarioTopology), gpu.V100(), []topology.NodeID{0}, costs, prof)
	if err != nil {
		t.Fatal(err)
	}
	kernels := make([]Kernel, len(sc.durs))
	for i, d := range sc.durs {
		kernels[i] = rt.NewKernel(runKernelNames[sc.names[i]], d)
	}
	if sc.hostBusy > 0 {
		rt.HostWait(0, profiler.StageWU, 0, sc.hostBusy)
	}
	if sc.engineBusy > 0 {
		rt.CommStream(0).Synchronize(profiler.StageWU, sc.engineBusy)
	}
	if sc.computeBusy > 0 {
		rt.BookKernel(0, false, profiler.StageOther, rt.NewKernel("pre", sc.computeBusy), 0)
	}
	if sc.commBusy > 0 {
		rt.BookKernel(0, true, profiler.StageOther, rt.NewKernel("pre", sc.commBusy), 0)
	}
	s := rt.Stream(0)
	if sc.comm {
		s = rt.CommStream(0)
	}
	s.WaitEvent(sc.tail)
	return rt, s, kernels
}

// checkRunMatchesLoop launches the scenario's run once with LaunchRun and
// once kernel by kernel with Launch, each on its own identically
// pre-booked runtime, and requires every observable to agree.
func checkRunMatchesLoop(t *testing.T, sc runScenario) {
	t.Helper()
	rtRun, sRun, ksRun := bookScenario(t, sc)
	rtLoop, sLoop, ksLoop := bookScenario(t, sc)

	run := Run{Slots: make([]profiler.Slot, len(ksRun)), Durs: make([]time.Duration, len(ksRun))}
	for i, k := range ksRun {
		run.Slots[i], run.Durs[i] = k.Slot, k.Dur
	}
	run.RunSum = Summarize(run.Durs, rtRun.costs.LaunchKernel)
	hostRun, endRun := sRun.LaunchRun(profiler.StageBP, run, sc.hostReady)
	hostLoop, endLoop := sc.hostReady, time.Duration(0)
	for _, k := range ksLoop {
		hostLoop, endLoop = sLoop.Launch(profiler.StageBP, k, hostLoop)
	}

	if hostRun != hostLoop || endRun != endLoop {
		t.Errorf("LaunchRun = (%v, %v), Launch loop = (%v, %v)", hostRun, endRun, hostLoop, endLoop)
	}
	if sRun.tail != sLoop.tail {
		t.Errorf("tail %v, loop %v", sRun.tail, sLoop.tail)
	}
	checkSameState(t, rtRun, rtLoop, append([]string{"pre"}, runKernelNames...))
}

// checkSameState requires two runtimes to agree on every observable: each
// managed device's host and engine threads and compute and comm queues,
// the profile aggregates of the listed kernels and of every API, the
// ranked name orders and the retained intervals.
func checkSameState(t *testing.T, got, want *Runtime, kernels []string) {
	t.Helper()
	for _, d := range want.lay.devs {
		id := d.id
		g, w := got.state(id), want.state(id)
		for _, r := range []struct {
			name string
			g, w *sim.Resource
		}{
			{"host", &g.host, &w.host}, {"engine", &g.engine, &w.engine},
			{"compute", g.dev.Queue(false), w.dev.Queue(false)},
			{"comm", g.dev.Queue(true), w.dev.Queue(true)},
		} {
			if r.g.FreeAt() != r.w.FreeAt() || r.g.BusyTime() != r.w.BusyTime() || r.g.Requests() != r.w.Requests() {
				t.Errorf("GPU%d %s: free %v busy %v requests %d; want free %v busy %v requests %d",
					id, r.name, r.g.FreeAt(), r.g.BusyTime(), r.g.Requests(), r.w.FreeAt(), r.w.BusyTime(), r.w.Requests())
			}
		}
	}

	pg, pw := got.prof, want.prof
	for _, name := range kernels {
		if a, b := pg.Kernel(name), pw.Kernel(name); a != b {
			t.Errorf("kernel %s: %+v, want %+v", name, a, b)
		}
	}
	for _, name := range []string{APILaunchKernel, APIMemcpyAsync, APIStreamSync} {
		if a, b := pg.API(name), pw.API(name); a != b {
			t.Errorf("API %s: %+v, want %+v", name, a, b)
		}
	}
	if !reflect.DeepEqual(pg.KernelNames(), pw.KernelNames()) || !reflect.DeepEqual(pg.APINames(), pw.APINames()) {
		t.Errorf("name orders differ: %v %v, want %v %v", pg.KernelNames(), pg.APINames(), pw.KernelNames(), pw.APINames())
	}
	if !reflect.DeepEqual(pg.Intervals(), pw.Intervals()) {
		t.Errorf("retained intervals differ")
	}
}

// durations returns n kernel durations cycling through ds, with names
// cycling through runKernelNames.
func durations(n int, ds ...time.Duration) ([]time.Duration, []int) {
	durs, names := make([]time.Duration, n), make([]int, n)
	for i := range durs {
		durs[i] = ds[i%len(ds)]
		names[i] = i % len(runKernelNames)
	}
	return durs, names
}

func TestLaunchRunMatchesLaunchLoop(t *testing.T) {
	us := time.Microsecond
	mixed, mixedNames := durations(40, 2*us, 30*us, 0, us, 9*us)
	hostBound, hostBoundNames := durations(25, us, 3*us)
	deviceBound, deviceBoundNames := durations(12, 200*us, 50*us)
	zeros, zeroNames := durations(7, 0)
	one, oneNames := durations(1, 17*us)
	for _, tc := range []struct {
		name string
		sc   runScenario
	}{
		{"empty", runScenario{launch: 4 * us, hostReady: 5 * us}},
		{"empty/busy", runScenario{launch: 4 * us, hostBusy: 50 * us, computeBusy: 80 * us, tail: 10 * us, hostReady: 5 * us}},
		{"single", runScenario{launch: 4 * us, hostReady: 3 * us, durs: one, names: oneNames}},
		{"zero-duration", runScenario{launch: 4 * us, tail: 2 * us, durs: zeros, names: zeroNames}},
		{"zero-launch-cost", runScenario{durs: mixed, names: mixedNames, hostBusy: 7 * us}},
		{"host-bound", runScenario{launch: 4 * us, durs: hostBound, names: hostBoundNames}},
		{"device-bound", runScenario{launch: 4 * us, durs: deviceBound, names: deviceBoundNames}},
		{"mixed", runScenario{launch: 4 * us, hostReady: us, durs: mixed, names: mixedNames}},
		{"host-thread-busy", runScenario{launch: 4 * us, hostBusy: 300 * us, durs: mixed, names: mixedNames}},
		{"queue-busy", runScenario{launch: 4 * us, computeBusy: 500 * us, durs: mixed, names: mixedNames}},
		{"tail-ahead", runScenario{launch: 4 * us, tail: time.Millisecond, durs: hostBound, names: hostBoundNames}},
		{"comm", runScenario{comm: true, launch: 4 * us, engineBusy: 60 * us, commBusy: 90 * us, durs: mixed, names: mixedNames}},
		{"comm/launch-thread-busy", runScenario{comm: true, launch: 4 * us, hostBusy: time.Millisecond, durs: hostBound, names: hostBoundNames}},
		{"detailed", runScenario{detailed: true, launch: 4 * us, computeBusy: 40 * us, durs: mixed, names: mixedNames}},
		{"detailed/empty", runScenario{detailed: true, launch: 4 * us, hostReady: 9 * us}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRunMatchesLoop(t, tc.sc) })
	}
}

// FuzzLaunchRun checks LaunchRun against the per-kernel Launch loop from
// arbitrary pre-booked host-thread, engine-thread, queue and tail
// states, on compute and comm streams. Each byte of kernels is one
// kernel: its high six bits scale unit into a duration (zero included),
// its low two bits pick the name.
func FuzzLaunchRun(f *testing.F) {
	f.Add(false, false, uint16(4000), uint16(1000), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), []byte{0x10, 0x21, 0xff, 0x00, 0x42})
	f.Add(true, false, uint16(4000), uint16(1), uint32(90000), uint32(30000), uint32(0), uint32(70000), uint32(1000), uint32(0), []byte{0x04, 0x04, 0x05, 0x06})
	f.Add(false, true, uint16(0), uint16(500), uint32(0), uint32(0), uint32(20000), uint32(0), uint32(0), uint32(3000), []byte{0x80, 0x00, 0x00, 0x80})
	f.Add(false, false, uint16(4000), uint16(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(50), []byte{})
	f.Fuzz(func(t *testing.T, comm, detailed bool, launch, unit uint16, hostBusy, engineBusy, computeBusy, commBusy, tail, hostReady uint32, kernels []byte) {
		if len(kernels) > 512 {
			kernels = kernels[:512]
		}
		ns := func(v uint32) time.Duration { return time.Duration(v) }
		sc := runScenario{
			comm: comm, detailed: detailed, launch: time.Duration(launch),
			hostBusy: ns(hostBusy), engineBusy: ns(engineBusy),
			computeBusy: ns(computeBusy), commBusy: ns(commBusy),
			tail: ns(tail), hostReady: ns(hostReady),
			durs: make([]time.Duration, len(kernels)), names: make([]int, len(kernels)),
		}
		for i, b := range kernels {
			sc.durs[i] = time.Duration(b>>2) * time.Duration(unit)
			sc.names[i] = int(b & 3)
		}
		checkRunMatchesLoop(t, sc)
	})
}
