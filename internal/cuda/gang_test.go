package cuda

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
)

// gangRank is one rank's state before a gang launch: each positive busy
// time books its resource from time zero (the engine thread with a comm
// stream's Synchronize, the comm queue with a kernel of that length), and
// tail raises the rank's stream tail (WaitEvent).
type gangRank struct {
	engineBusy, commBusy, tail time.Duration
}

// gangScenario is one pre-booked runtime state and one collective to
// launch from it on the gang of ranks 0..len(ranks)-1.
type gangScenario struct {
	detailed   bool
	launch     time.Duration // Costs.LaunchKernel
	ranks      []gangRank
	ready, dur time.Duration
	kernel     int // index into gangKernelNames
}

var gangKernelNames = []string{"ncclAllReduceRingKernel", "ncclBroadcastRingKernel", "pre"}

// bookGang builds a runtime in the scenario's pre-booked state and
// returns it with its gang and the kernel the gang launches.
func bookGang(t *testing.T, sc gangScenario) (*Runtime, *Gang, Kernel) {
	t.Helper()
	prof := profiler.New()
	if sc.detailed {
		prof = profiler.NewDetailed(1 << 10)
	}
	costs := DefaultCosts()
	costs.LaunchKernel = sc.launch
	devs := make([]topology.NodeID, len(sc.ranks))
	for i := range devs {
		devs[i] = topology.NodeID(i)
	}
	rt, err := NewRuntime(interconnect.New(scenarioTopology), gpu.V100(), devs, costs, prof)
	if err != nil {
		t.Fatal(err)
	}
	pre := rt.NewKernel("pre", 0)
	k := rt.NewKernel(gangKernelNames[sc.kernel], 0)
	for i, r := range sc.ranks {
		if r.engineBusy > 0 {
			rt.CommStream(devs[i]).Synchronize(profiler.StageWU, r.engineBusy)
		}
		if r.commBusy > 0 {
			pre.Dur = r.commBusy
			rt.BookKernel(devs[i], true, profiler.StageOther, pre, 0)
		}
	}
	g := rt.CommGang(devs)
	for i, r := range sc.ranks {
		g.Stream(i).WaitEvent(r.tail)
	}
	return rt, g, k
}

// checkGangMatchesLoop launches the scenario's collective once with
// Gang.Launch and once rank by rank (HostLaunch on every rank, then
// Extend on every rank), each on its own identically pre-booked runtime,
// and requires every observable to agree.
func checkGangMatchesLoop(t *testing.T, sc gangScenario) {
	t.Helper()
	rtGang, gGang, kGang := bookGang(t, sc)
	rtLoop, gLoop, kLoop := bookGang(t, sc)

	global, end := gGang.Launch(profiler.StageWU, kGang, sc.ready, sc.dur)
	wantGlobal, wantEnd := gLoop.launchEach(profiler.StageWU, kLoop, sc.ready, sc.dur)
	if global != wantGlobal || end != wantEnd {
		t.Errorf("Launch = (%v, %v), loop = (%v, %v)", global, end, wantGlobal, wantEnd)
	}
	for i := range sc.ranks {
		if a, b := gGang.Stream(i).tail, gLoop.Stream(i).tail; a != b {
			t.Errorf("rank %d tail %v, loop %v", i, a, b)
		}
	}
	checkSameState(t, rtGang, rtLoop, gangKernelNames)
}

func TestGangMatchesLaunchLoop(t *testing.T) {
	us := time.Microsecond
	idle := func(n int) []gangRank { return make([]gangRank, n) }
	for _, tc := range []struct {
		name string
		sc   gangScenario
	}{
		{"one-rank", gangScenario{launch: 4 * us, ranks: idle(1), ready: us, dur: 30 * us}},
		{"idle-8", gangScenario{launch: 4 * us, ranks: idle(8), ready: 2 * us, dur: 90 * us}},
		{"zero-duration", gangScenario{launch: 4 * us, ranks: idle(3), dur: 0}},
		{"zero-launch-cost", gangScenario{ranks: idle(4), ready: 5 * us, dur: 10 * us}},
		{"tail-ahead", gangScenario{launch: 4 * us, ranks: []gangRank{{}, {tail: 300 * us}, {tail: 20 * us}}, dur: 50 * us}},
		// Rank 0's stream runs far past the collective's readiness.
		{"root-tail-ahead", gangScenario{launch: 4 * us, ranks: []gangRank{{tail: 3 * time.Millisecond}, {}}, ready: us, dur: 40 * us}},
		{"engine-busy", gangScenario{launch: 4 * us, ranks: []gangRank{{engineBusy: 200 * us}, {}}, ready: us, dur: 50 * us}},
		// A queue busy past global starts that rank's window late, so its
		// tail ends after the collective's end.
		{"queue-busy", gangScenario{launch: 4 * us, ranks: []gangRank{{commBusy: time.Millisecond}, {}, {tail: 10 * us}}, dur: 70 * us, kernel: 1}},
		{"ready-ahead", gangScenario{launch: 4 * us, ranks: []gangRank{{engineBusy: 5 * us, commBusy: 8 * us}, {tail: 9 * us}}, ready: time.Millisecond, dur: 40 * us}},
		{"recorded-slot", gangScenario{launch: 4 * us, ranks: []gangRank{{commBusy: 30 * us}, {commBusy: 60 * us}}, dur: 25 * us, kernel: 2}},
		{"detailed", gangScenario{detailed: true, launch: 4 * us, ranks: []gangRank{{commBusy: 40 * us}, {tail: 70 * us}, {}}, dur: 20 * us}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGangMatchesLoop(t, tc.sc) })
	}
}

// FuzzLaunchGang checks Gang.Launch against the rank-by-rank HostLaunch
// and Extend loop from arbitrary pre-booked engine-thread, comm-queue
// and tail states. ranks holds three bytes per rank (engine busy,
// comm busy, tail), each scaled by unit; there are 1 to 8 ranks.
func FuzzLaunchGang(f *testing.F) {
	f.Add(false, uint16(4000), uint16(1000), uint32(0), uint32(50000), uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add(false, uint16(4000), uint16(1000), uint32(100), uint32(0), uint8(1), []byte{10, 0, 0, 0, 200, 0, 0, 0, 90})
	f.Add(true, uint16(4000), uint16(500), uint32(7000), uint32(30000), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(false, uint16(0), uint16(1), uint32(0), uint32(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, detailed bool, launch, unit uint16, ready, dur uint32, kernel uint8, ranks []byte) {
		n := min(max(len(ranks)/3, 1), 8)
		ranks = append(ranks, make([]byte, 3*n)...)
		sc := gangScenario{
			detailed: detailed, launch: time.Duration(launch),
			ready: time.Duration(ready), dur: time.Duration(dur),
			ranks:  make([]gangRank, n),
			kernel: int(kernel) % len(gangKernelNames),
		}
		scale := func(b byte) time.Duration { return time.Duration(b) * time.Duration(unit) }
		for i := range sc.ranks {
			b := ranks[3*i:]
			sc.ranks[i] = gangRank{engineBusy: scale(b[0]), commBusy: scale(b[1]), tail: scale(b[2])}
		}
		checkGangMatchesLoop(t, sc)
	})
}
