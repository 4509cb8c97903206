package gpu

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestV100Spec(t *testing.T) {
	s := V100()
	if s.SMs != 80 {
		t.Errorf("SMs = %d, want 80", s.SMs)
	}
	if s.MemCapacity != 16*units.GB {
		t.Errorf("capacity = %v, want 16GB", s.MemCapacity)
	}
	if s.PeakTensor <= s.PeakFP32 {
		t.Error("tensor peak should exceed FP32 peak")
	}
}

func TestKernelDurationComputeBound(t *testing.T) {
	s := V100()
	c := KernelCost{
		FLOPs:       10 * units.GFLOPs,
		MemBytes:    units.MB, // negligible
		Parallelism: 100 * s.OccupancyHalf,
		Class:       ClassFMA,
	}
	got := s.KernelDuration(c)
	occ := float64(c.Parallelism) / float64(c.Parallelism+s.OccupancyHalf)
	want := s.KernelGap + units.ComputeTime(c.FLOPs, units.FLOPRate(float64(s.PeakFP32)*occ))
	if got != want {
		t.Errorf("duration = %v, want %v", got, want)
	}
}

func TestKernelDurationMemoryBound(t *testing.T) {
	s := V100()
	c := KernelCost{
		FLOPs:       units.MFLOPs, // negligible
		MemBytes:    900 * units.MB,
		Parallelism: 1 << 40, // full occupancy
		Class:       ClassMemory,
	}
	got := s.KernelDuration(c)
	// ~1ms (900MB at ~900GB/s, binary-vs-decimal aside) plus the gap.
	if got < 900*time.Microsecond || got > 1200*time.Microsecond {
		t.Errorf("memory-bound duration = %v, want ~1ms", got)
	}
}

func TestTensorClassFasterThanFMA(t *testing.T) {
	s := V100()
	c := KernelCost{FLOPs: 10 * units.GFLOPs, Parallelism: 1 << 30, Class: ClassTensor}
	f := c
	f.Class = ClassFMA
	if s.KernelDuration(c) >= s.KernelDuration(f) {
		t.Error("tensor kernel should be faster than FMA kernel of equal work")
	}
}

func TestOccupancyPenalizesSmallKernels(t *testing.T) {
	s := V100()
	small := KernelCost{FLOPs: units.GFLOPs, Parallelism: 1024, Class: ClassFMA}
	big := KernelCost{FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: ClassFMA}
	if s.KernelDuration(small) <= s.KernelDuration(big) {
		t.Error("low-parallelism kernel should run longer")
	}
}

// Property: duration is monotonically non-decreasing in FLOPs.
func TestKernelDurationMonotonicInWork(t *testing.T) {
	s := V100()
	f := func(a, b uint32) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cl := KernelCost{FLOPs: units.FLOPs(lo) * units.KFLOPs, Parallelism: 1 << 20, Class: ClassFMA}
		ch := KernelCost{FLOPs: units.FLOPs(hi) * units.KFLOPs, Parallelism: 1 << 20, Class: ClassFMA}
		return s.KernelDuration(cl) <= s.KernelDuration(ch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroParallelismIsJustGap(t *testing.T) {
	s := V100()
	c := KernelCost{FLOPs: units.GFLOPs, Parallelism: 0, Class: ClassFMA}
	if got := s.KernelDuration(c); got != s.KernelGap {
		t.Errorf("duration = %v, want gap %v", got, s.KernelGap)
	}
}

func TestEffDiscountsRoof(t *testing.T) {
	s := V100()
	full := KernelCost{FLOPs: 10 * units.GFLOPs, Parallelism: 1 << 30, Class: ClassFMA, Eff: 1}
	half := full
	half.Eff = 0.5
	df, dh := s.KernelDuration(full), s.KernelDuration(half)
	// Half efficiency should roughly double the compute portion.
	if dh <= df {
		t.Errorf("eff=0.5 (%v) should be slower than eff=1 (%v)", dh, df)
	}
}

func TestAchievedRateBelowPeak(t *testing.T) {
	s := V100()
	c := KernelCost{FLOPs: 10 * units.GFLOPs, Parallelism: 1 << 30, Class: ClassFMA}
	if r := s.AchievedRate(c); r <= 0 || r >= s.PeakFP32 {
		t.Errorf("achieved rate %v out of (0, peak)", r)
	}
}

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(units.GB)
	if err := a.Alloc("weights", 600*units.MB); err != nil {
		t.Fatal(err)
	}
	if err := a.Alloc("features", 600*units.MB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if err := a.Alloc("features", 400*units.MB); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 1000*units.MB {
		t.Errorf("used = %v, want 1000MB", a.Used())
	}
	a.Free("weights", 600*units.MB)
	if a.Used() != 400*units.MB {
		t.Errorf("used = %v, want 400MB", a.Used())
	}
	if a.Peak() != 1000*units.MB {
		t.Errorf("peak = %v, want 1000MB", a.Peak())
	}
	if a.Tag("features") != 400*units.MB {
		t.Errorf("tag = %v, want 400MB", a.Tag("features"))
	}
}

func TestAllocatorOverFreePanics(t *testing.T) {
	a := NewAllocator(units.GB)
	if err := a.Alloc("x", units.MB); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("over-free should panic")
		}
	}()
	a.Free("x", 2*units.MB)
}

func TestAllocatorNegative(t *testing.T) {
	a := NewAllocator(units.GB)
	if err := a.Alloc("x", -1); err == nil {
		t.Error("negative alloc should error")
	}
}

func TestAllocatorTagsSorted(t *testing.T) {
	a := NewAllocator(units.GB)
	for _, tag := range []string{"z", "a", "m"} {
		if err := a.Alloc(tag, units.MB); err != nil {
			t.Fatal(err)
		}
	}
	tags := a.Tags()
	if len(tags) != 3 || tags[0].Tag != "a" || tags[1].Tag != "m" || tags[2].Tag != "z" {
		t.Errorf("tags not sorted: %v", tags)
	}
}

func TestDeviceQueuesIndependent(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, 0, V100())
	c := d.Spec.KernelDuration(KernelCost{FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: ClassFMA})
	_, endCompute := d.BookKernel(0, c)
	_, endComm := d.BookCommKernel(0, 10*time.Microsecond)
	if endComm >= endCompute {
		// Comm kernel is shorter and runs on its own queue.
		t.Errorf("comm kernel (%v) should finish before compute kernel (%v)", endComm, endCompute)
	}
	// Compute bookings serialize.
	s2, _ := d.BookKernel(0, c)
	if s2 != endCompute {
		t.Errorf("second kernel start = %v, want %v (FIFO)", s2, endCompute)
	}
}

func TestDeviceBusyAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, 3, V100())
	c := d.Spec.KernelDuration(KernelCost{FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: ClassFMA})
	_, end := d.BookKernel(0, c)
	if d.ComputeBusy() != end {
		t.Errorf("busy = %v, want %v", d.ComputeBusy(), end)
	}
	if d.ComputeFreeAt() != end {
		t.Errorf("free at = %v, want %v", d.ComputeFreeAt(), end)
	}
	if d.CommFreeAt() != 0 {
		t.Errorf("comm free at = %v, want 0", d.CommFreeAt())
	}
}
