package cuda

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
)

// passSide is one stream's state before a pass: its host thread's and
// device queue's free times, its tail, and when the pass's input is
// ready.
type passSide struct {
	hostFree, queueFree, tail, dataReady time.Duration
}

// passScenario is a pass launched on two streams of one runtime, on GPUs
// 0 and 1, from hostReady: its runs (the first non-empty), then a
// Synchronize.
type passScenario struct {
	comm      bool
	launch    time.Duration
	hostReady time.Duration
	sides     [2]passSide
	runs      [][]time.Duration
}

// bookPass builds a runtime with both streams in their pre-booked state
// and returns it with the streams and the runs lowered on its profile.
func bookPass(t *testing.T, sc passScenario) (*Runtime, [2]*Stream, []Run) {
	t.Helper()
	costs := DefaultCosts()
	costs.LaunchKernel = sc.launch
	rt, err := NewRuntime(interconnect.New(scenarioTopology), gpu.V100(), []topology.NodeID{0, 1}, costs, profiler.New())
	if err != nil {
		t.Fatal(err)
	}
	streams := rt.Streams([]topology.NodeID{0, 1}, sc.comm)
	var out [2]*Stream
	for i := range out {
		s := &streams[i]
		s.thread().Book(0, sc.sides[i].hostFree)
		s.d.dev.Queue(sc.comm).Book(0, sc.sides[i].queueFree)
		s.WaitEvent(sc.sides[i].tail)
		out[i] = s
	}
	runs := make([]Run, len(sc.runs))
	for i, durs := range sc.runs {
		r := Run{Slots: make([]profiler.Slot, len(durs)), Durs: durs, RunSum: Summarize(durs, sc.launch)}
		for j := range durs {
			r.Slots[j] = rt.NewKernel(runKernelNames[(i+j)%len(runKernelNames)], 0).Slot
		}
		runs[i] = r
	}
	return rt, out, runs
}

// launchPass launches the runs on s from hostReady with input ready at
// dataReady, then synchronizes: one device's pass of a training step.
func launchPass(s *Stream, runs []Run, hostReady, dataReady time.Duration) {
	s.WaitEvent(dataReady)
	host := hostReady
	for _, r := range runs {
		host, _ = s.LaunchRun(profiler.StageBP, r, host)
	}
	s.Synchronize(profiler.StageBP, host)
}

// checkReplayMatchesLaunch launches the scenario's pass on both streams
// of one runtime, and on stream 0 of a second identically pre-booked
// runtime, replayed there on stream 1 with the profile's aggregates
// repeated. It requires every observable to agree, when the two streams'
// entries are equal.
func checkReplayMatchesLaunch(t *testing.T, sc passScenario) {
	t.Helper()
	rtA, sa, runsA := bookPass(t, sc)
	rtB, sb, runsB := bookPass(t, sc)
	if sb[0].Entry(sc.hostReady, sc.sides[0].dataReady) != sb[1].Entry(sc.hostReady, sc.sides[1].dataReady) {
		t.Fatalf("entries differ: %+v, %+v", sb[0].Entry(sc.hostReady, sc.sides[0].dataReady), sb[1].Entry(sc.hostReady, sc.sides[1].dataReady))
	}
	for i, s := range sa {
		launchPass(s, runsA, sc.hostReady, sc.sides[i].dataReady)
	}

	var m StreamMark
	var pm profiler.Mark
	sb[0].Mark(&m)
	rtB.Profile().Mark(&pm)
	launchPass(sb[0], runsB, sc.hostReady, sc.sides[0].dataReady)
	rtB.Profile().Repeat(&pm, 1, 0)
	sb[1].WaitEvent(sc.sides[1].dataReady)
	sb[1].Replay(sb[0], &m)

	for i := range sa {
		if sa[i].Tail() != sb[i].Tail() {
			t.Errorf("stream %d tail %v after replay, %v launched", i, sb[i].Tail(), sa[i].Tail())
		}
	}
	checkSameState(t, rtB, rtA, runKernelNames)
}

// Launching a pass on two streams with equal entries leaves the same
// resources, tails and profile as launching it on one and replaying it on
// the other: with the streams' states identical, and with the second
// stream's queue, tail and input ready at different times that all lie at
// or below H0.
func TestReplayMatchesLaunch(t *testing.T) {
	us := time.Microsecond
	mixed, _ := durations(30, 2*us, 30*us, 0, us, 9*us)
	hostBound, _ := durations(12, us, 3*us)
	deviceBound, _ := durations(6, 200*us, 50*us)
	same := func(p passSide) [2]passSide { return [2]passSide{p, p} }
	for _, tc := range []struct {
		name string
		sc   passScenario
	}{
		{"idle", passScenario{launch: 4 * us, hostReady: 10 * us, sides: same(passSide{}), runs: [][]time.Duration{mixed}}},
		{"host-busy", passScenario{launch: 4 * us, hostReady: 10 * us,
			sides: same(passSide{hostFree: 90 * us, queueFree: 40 * us, tail: 20 * us, dataReady: 50 * us}),
			runs:  [][]time.Duration{hostBound, mixed, nil, deviceBound}}},
		{"device-ahead", passScenario{launch: 4 * us, hostReady: 10 * us,
			sides: same(passSide{hostFree: 5 * us, queueFree: 700 * us, tail: 300 * us, dataReady: 500 * us}),
			runs:  [][]time.Duration{deviceBound, hostBound, nil}}},
		{"below-h0", passScenario{launch: 4 * us, hostReady: 100 * us,
			sides: [2]passSide{
				{hostFree: 60 * us, queueFree: 90 * us, tail: 10 * us, dataReady: 30 * us},
				{hostFree: 0, queueFree: 0, tail: 99 * us, dataReady: 100 * us},
			},
			runs: [][]time.Duration{mixed, deviceBound}}},
		{"device-ahead/split", passScenario{launch: 4 * us, hostReady: 10 * us,
			sides: [2]passSide{
				{hostFree: 40 * us, queueFree: 700 * us, tail: 300 * us, dataReady: 500 * us},
				{hostFree: 40 * us, queueFree: 200 * us, tail: 100 * us, dataReady: 700 * us},
			},
			runs: [][]time.Duration{mixed}}},
		{"comm", passScenario{comm: true, launch: 4 * us, hostReady: 10 * us,
			sides: same(passSide{hostFree: 30 * us, queueFree: 80 * us}),
			runs:  [][]time.Duration{hostBound, mixed}}},
		{"zero-launch-cost", passScenario{hostReady: 10 * us, sides: same(passSide{queueFree: 20 * us}), runs: [][]time.Duration{mixed, mixed}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkReplayMatchesLaunch(t, tc.sc) })
	}
}

// FuzzReplayPass checks Replay against launching the pass over drawn
// pre-booked states and runs, on compute and comm streams, whenever the
// two streams' entries are equal. Stream 0's state is drawn; stream 1's
// is drawn and, when pick's high bit is clear, bent to the same entry:
// its host thread frees at or before hostReady when stream 0's does (and
// with it otherwise), and its tail, input and queue lie at or below
// max(E0, H0), with pick taking E0 itself for one of them when it is
// above H0. Unbent draws hold an entry that is too coarse to account.
// Each byte of kernels is one kernel (its high six bits scale unit into
// a duration), and a 0xff byte ends a run. The seed corpus is in
// testdata/fuzz/FuzzReplayPass.
func FuzzReplayPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, comm bool, launch, unit uint16, hostReady, hostFree, queueFree, tail, dataReady, hostFree1, queueFree1, tail1, dataReady1 uint32, pick uint8, kernels []byte) {
		if len(kernels) > 256 {
			kernels = kernels[:256]
		}
		ns := func(v uint32) time.Duration { return time.Duration(v) }
		sc := passScenario{comm: comm, launch: time.Duration(launch), hostReady: ns(hostReady)}
		sc.sides[0] = passSide{hostFree: ns(hostFree), queueFree: ns(queueFree), tail: ns(tail), dataReady: ns(dataReady)}
		p0 := sc.sides[0]
		h0 := max(sc.hostReady, p0.hostFree)
		e0 := max(p0.tail, p0.dataReady, p0.queueFree)
		top := max(e0, h0)
		p1 := passSide{hostFree: ns(hostFree1), queueFree: ns(queueFree1), tail: ns(tail1), dataReady: ns(dataReady1)}
		bend := pick < 0x80
		if bend {
			p1.queueFree, p1.tail, p1.dataReady = min(p1.queueFree, top), min(p1.tail, top), min(p1.dataReady, top)
			if p0.hostFree > sc.hostReady {
				p1.hostFree = p0.hostFree
			} else {
				p1.hostFree = min(p1.hostFree, sc.hostReady)
			}
		}
		if bend && e0 > h0 {
			switch pick % 3 {
			case 0:
				p1.queueFree = e0
			case 1:
				p1.tail = e0
			case 2:
				p1.dataReady = e0
			}
		}
		sc.sides[1] = p1
		run := []time.Duration{}
		for _, b := range kernels {
			if b == 0xff {
				sc.runs = append(sc.runs, run)
				run = []time.Duration{}
				continue
			}
			run = append(run, time.Duration(b>>2)*time.Duration(unit))
		}
		sc.runs = append(sc.runs, run)
		if len(sc.runs[0]) == 0 {
			// A pass starts with a kernel (Stream.Entry).
			sc.runs[0] = []time.Duration{time.Duration(unit)}
		}
		if !bend {
			_, s, _ := bookPass(t, sc)
			if s[0].Entry(sc.hostReady, p0.dataReady) != s[1].Entry(sc.hostReady, p1.dataReady) {
				return
			}
		}
		checkReplayMatchesLaunch(t, sc)
	})
}
