package gpu

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

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

func TestDeviceQueuesIndependent(t *testing.T) {
	d := &Device{ID: 0, Spec: V100()}
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

func TestZeroDeviceStartsIdle(t *testing.T) {
	d := &Device{ID: 5, Spec: V100()}
	if d.Queue(false) == d.Queue(true) {
		t.Error("Queue(false) and Queue(true) are the same queue")
	}
	if d.ComputeBusy() != 0 || d.Queue(false).FreeAt() != 0 || d.Queue(true).FreeAt() != 0 {
		t.Errorf("fresh device: busy %v, compute free %v, comm free %v", d.ComputeBusy(), d.Queue(false).FreeAt(), d.Queue(true).FreeAt())
	}
}

// Copies fan out over the copy engines: the first two run side by side,
// and the third takes whichever engine drains first.
func TestBookDMAUsesLeastLoadedEngine(t *testing.T) {
	d := &Device{ID: 0, Spec: V100()}
	ms := time.Millisecond
	s1, e1 := d.BookDMA(0, 10*ms)
	s2, e2 := d.BookDMA(0, 4*ms)
	if s1 != 0 || e1 != 10*ms || s2 != 0 || e2 != 4*ms {
		t.Errorf("first two copies [%v,%v] [%v,%v], want [0,10ms] [0,4ms] (two engines)", s1, e1, s2, e2)
	}
	if s3, e3 := d.BookDMA(0, 3*ms); s3 != 4*ms || e3 != 7*ms {
		t.Errorf("third copy [%v,%v], want [4ms,7ms] (behind the shorter copy)", s3, e3)
	}
	// Copies never occupy the kernel queues.
	if d.Queue(false).FreeAt() != 0 || d.Queue(true).FreeAt() != 0 {
		t.Errorf("DMA booked a kernel queue: compute free %v, comm free %v", d.Queue(false).FreeAt(), d.Queue(true).FreeAt())
	}
}

func TestDeviceBusyAccounting(t *testing.T) {
	d := &Device{ID: 3, Spec: V100()}
	c := d.Spec.KernelDuration(KernelCost{FLOPs: units.GFLOPs, Parallelism: 1 << 30, Class: ClassFMA})
	_, end := d.BookKernel(0, c)
	if d.ComputeBusy() != end {
		t.Errorf("busy = %v, want %v", d.ComputeBusy(), end)
	}
	if d.Queue(false).FreeAt() != end {
		t.Errorf("free at = %v, want %v", d.Queue(false).FreeAt(), end)
	}
	if d.Queue(true).FreeAt() != 0 {
		t.Errorf("comm free at = %v, want 0", d.Queue(true).FreeAt())
	}
}

// AppendState measures every queue from the floor, clamped at it, and
// lists the copy engines as a sorted pair: devices whose engines hold the
// same free times in either order have one state, and they book every
// later copy alike.
func TestAppendStateSortsEngines(t *testing.T) {
	a, b := &Device{ID: 0, Spec: V100()}, &Device{ID: 1, Spec: V100()}
	a.BookDMA(0, 10*time.Microsecond)
	a.BookDMA(0, 5*time.Microsecond)
	b.BookDMA(0, 5*time.Microsecond)
	b.BookDMA(0, 10*time.Microsecond)
	a.BookKernel(0, 3*time.Microsecond)
	b.BookKernel(0, 2*time.Microsecond)
	floor := 7 * time.Microsecond
	sa, sb := a.AppendState(nil, floor), b.AppendState(nil, floor)
	want := []time.Duration{0, 0, 0, 3 * time.Microsecond}
	if !reflect.DeepEqual(sa, want) || !reflect.DeepEqual(sb, want) {
		t.Fatalf("states %v and %v, want %v", sa, sb, want)
	}
	for i := 0; i < 4; i++ {
		ready := floor + time.Duration(i)*time.Microsecond
		_, ea := a.BookDMA(ready, 4*time.Microsecond)
		_, eb := b.BookDMA(ready, 4*time.Microsecond)
		if ea != eb {
			t.Fatalf("copy %d ends at %v and %v", i, ea, eb)
		}
	}
}
