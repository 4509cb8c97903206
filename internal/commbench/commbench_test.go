package commbench

import (
	"testing"

	"repro/internal/train"
	"repro/internal/units"
)

func TestMeasureBasics(t *testing.T) {
	p, err := Measure(AllReduce, train.MethodNCCL, 4, 16*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if p.Time <= 0 || p.AlgBW <= 0 || p.BusBW <= p.AlgBW {
		t.Errorf("bad point: %+v", p)
	}
	// Bus bandwidth cannot exceed the communicator's aggregate ring
	// bandwidth (25 GB/s for the 4-GPU quad) by construction.
	if p.BusBW > 26*units.GBPerSec {
		t.Errorf("4-GPU bus BW %v exceeds the quad ring's 25GB/s", p.BusBW)
	}
}

func TestBandwidthGrowsWithSize(t *testing.T) {
	small, err := Measure(AllReduce, train.MethodNCCL, 8, 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Measure(AllReduce, train.MethodNCCL, 8, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if big.AlgBW <= small.AlgBW {
		t.Errorf("large messages should achieve more bandwidth: %v vs %v", big.AlgBW, small.AlgBW)
	}
}

func TestEightGPUBusBWApproachesRings(t *testing.T) {
	p, err := Measure(AllReduce, train.MethodNCCL, 8, 256*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// Two 25GB/s rings: asymptotic bus bandwidth ~50GB/s; a large message
	// should get most of it.
	if p.BusBW < 35*units.GBPerSec {
		t.Errorf("8-GPU large-message bus BW = %v, want approaching 50GB/s", p.BusBW)
	}
}

// Transport-only crossover structure: at 2 GPUs (one bonded link, a
// single-hop P2P tree) P2P's direct copies beat the ring until messages
// get large; at 8 GPUs the two pipelined rings win at every size. The
// training-level "P2P wins LeNet everywhere" result is therefore NOT a
// transport effect — it is NCCL's per-session setup cost failing to
// amortize over short epochs, exactly the paper's explanation.
func TestCrossoverStructure(t *testing.T) {
	sizes := DefaultSizes()
	cross2, err := Crossover(2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if cross2 == 0 {
		t.Fatal("NCCL should eventually beat P2P at 2 GPUs")
	}
	if cross2 <= sizes[0] {
		t.Errorf("P2P should win small bursts at 2 GPUs, crossover at %v", cross2)
	}
	cross8, err := Crossover(8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if cross8 >= cross2 {
		t.Errorf("NCCL should overtake earlier with more GPUs: 2-GPU %v vs 8-GPU %v", cross2, cross8)
	}
	// Below the 2-GPU crossover the ordering actually flips.
	pSmall, err := MeasureBurst(AllReduce, train.MethodP2P, 2, sizes[0], CrossoverBurst)
	if err != nil {
		t.Fatal(err)
	}
	nSmall, err := MeasureBurst(AllReduce, train.MethodNCCL, 2, sizes[0], CrossoverBurst)
	if err != nil {
		t.Fatal(err)
	}
	if pSmall.Time >= nSmall.Time {
		t.Errorf("P2P burst (%v) should beat NCCL burst (%v) at %v", pSmall.Time, nSmall.Time, sizes[0])
	}
}

func TestBurstValidation(t *testing.T) {
	if _, err := MeasureBurst(AllReduce, train.MethodNCCL, 2, units.MB, 0); err == nil {
		t.Error("zero burst should error")
	}
}

func TestSweepShape(t *testing.T) {
	sizes := []units.Bytes{units.MB, 4 * units.MB}
	pts, err := Sweep(Broadcast, 4, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Op != Broadcast || p.GPUs != 4 {
			t.Errorf("bad point %+v", p)
		}
	}
}

func TestMeasureValidation(t *testing.T) {
	if _, err := Measure(AllReduce, train.MethodNCCL, 0, units.MB); err == nil {
		t.Error("0 GPUs should error")
	}
	if _, err := Measure("scatter", train.MethodNCCL, 2, units.MB); err == nil {
		t.Error("unknown op should error")
	}
	if _, err := Measure(AllReduce, "mpi", 2, units.MB); err == nil {
		t.Error("unknown method should error")
	}
}

func TestDefaultSizesAscending(t *testing.T) {
	sizes := DefaultSizes()
	if len(sizes) < 5 {
		t.Fatalf("too few sizes: %d", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes not ascending")
		}
	}
}

// Each measurement books on a fabric of its own, so repeating one gives
// the same point: no traffic carries over between calls.
func TestMeasureBurstRepeatable(t *testing.T) {
	for _, m := range []train.Method{train.MethodP2P, train.MethodNCCL} {
		first, err := MeasureBurst(AllReduce, m, 4, 16*units.MB, 3)
		if err != nil {
			t.Fatal(err)
		}
		again, err := MeasureBurst(AllReduce, m, 4, 16*units.MB, 3)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Errorf("%s: repeated burst %+v, first %+v", m, again, first)
		}
		if first.Size != 48*units.MB {
			t.Errorf("%s: burst size = %v, want 48MB (3 x 16MB)", m, first.Size)
		}
	}
}

// NCCL collectives serialize on the communicator's stream, so a burst of
// three takes about three single collectives; P2P chains overlap across
// links and copy engines, so three of them take far less than three
// times one.
func TestBurstPipelining(t *testing.T) {
	ratio := func(m train.Method) float64 {
		one, err := MeasureBurst(AllReduce, m, 4, 16*units.MB, 1)
		if err != nil {
			t.Fatal(err)
		}
		three, err := MeasureBurst(AllReduce, m, 4, 16*units.MB, 3)
		if err != nil {
			t.Fatal(err)
		}
		return three.Time.Seconds() / one.Time.Seconds()
	}
	if r := ratio(train.MethodNCCL); r < 2.9 || r > 3 {
		t.Errorf("NCCL burst of 3 = %.3f x one collective, want serialized (2.9-3)", r)
	}
	if r := ratio(train.MethodP2P); r > 2.5 {
		t.Errorf("P2P burst of 3 = %.3f x one chain, want overlapped (< 2.5)", r)
	}
}
