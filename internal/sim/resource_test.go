package sim

import (
	"testing"
	"time"
)

func TestResourceSerializesFIFO(t *testing.T) {
	r := new(Resource)
	for i := 0; i < 3; i++ {
		start, end := r.Book(0, 10*time.Millisecond)
		wantStart := time.Duration(i) * 10 * time.Millisecond
		if start != wantStart || end != wantStart+10*time.Millisecond {
			t.Errorf("request %d span = [%v,%v], want [%v,%v]",
				i, start, end, wantStart, wantStart+10*time.Millisecond)
		}
	}
}

func TestResourceBookWaitsForReadiness(t *testing.T) {
	r := new(Resource)
	if start, _ := r.Book(50*time.Millisecond, 10*time.Millisecond); start != 50*time.Millisecond {
		t.Errorf("start = %v, want 50ms (waited for readiness)", start)
	}
}

func TestResourceBookQueuesBehindEarlierWork(t *testing.T) {
	r := new(Resource)
	r.Book(0, 100*time.Millisecond)
	if start, _ := r.Book(50*time.Millisecond, 10*time.Millisecond); start != 100*time.Millisecond {
		t.Errorf("start = %v, want 100ms (queued behind busy resource)", start)
	}
}

// The zero Resource is idle, which is what lets a run keep its resources
// by value in one zeroed slab.
func TestZeroResourceStartsIdle(t *testing.T) {
	var r Resource
	if r.FreeAt() != 0 || r.BusyTime() != 0 || r.Requests() != 0 {
		t.Errorf("fresh resource: free %v busy %v requests %d, want all zero",
			r.FreeAt(), r.BusyTime(), r.Requests())
	}
}

// Requests ready at the same instant are served in booking order: the
// list schedule's tie-break is the order of the calls.
func TestResourceBookTieBreaksByCallOrder(t *testing.T) {
	r := new(Resource)
	var got []time.Duration
	for _, dur := range []time.Duration{30, 10, 20} {
		start, _ := r.Book(5*time.Millisecond, dur*time.Millisecond)
		got = append(got, start)
	}
	want := []time.Duration{5 * time.Millisecond, 35 * time.Millisecond, 45 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d start = %v, want %v", i, got[i], want[i])
		}
	}
}

// A dependency is one booking's end passed as the next one's readiness:
// a copy, then a kernel that consumes it, then a copy of the kernel's
// result back over the same link, each waiting on the one before.
func TestResourceBookChainsAcrossResources(t *testing.T) {
	link, pipe := new(Resource), new(Resource)
	_, copied := link.Book(0, 10*time.Millisecond)
	kStart, kEnd := pipe.Book(copied, 25*time.Millisecond)
	if kStart != 10*time.Millisecond || kEnd != 35*time.Millisecond {
		t.Errorf("kernel [%v,%v], want [10ms,35ms]", kStart, kEnd)
	}
	// Unrelated traffic books the link meanwhile; the copy back still
	// waits for the kernel, not for the link alone.
	link.Book(0, 5*time.Millisecond)
	bStart, bEnd := link.Book(kEnd, 10*time.Millisecond)
	if bStart != 35*time.Millisecond || bEnd != 45*time.Millisecond {
		t.Errorf("copy back [%v,%v], want [35ms,45ms]", bStart, bEnd)
	}
}

// A zero-length request still queues and counts as a request, but adds
// no busy time and does not move FreeAt past its start.
func TestResourceBookZeroDuration(t *testing.T) {
	r := new(Resource)
	r.Book(0, 20*time.Millisecond)
	start, end := r.Book(5*time.Millisecond, 0)
	if start != 20*time.Millisecond || end != 20*time.Millisecond {
		t.Errorf("zero-length booking [%v,%v], want [20ms,20ms]", start, end)
	}
	if r.Requests() != 2 || r.BusyTime() != 20*time.Millisecond || r.FreeAt() != 20*time.Millisecond {
		t.Errorf("requests %d busy %v free %v, want 2, 20ms, 20ms", r.Requests(), r.BusyTime(), r.FreeAt())
	}
}

// Time starts at zero: a request whose readiness is negative starts at
// zero on an idle resource, never before.
func TestResourceBookNegativeReadyStartsAtZero(t *testing.T) {
	r := new(Resource)
	start, end := r.Book(-10*time.Millisecond, 5*time.Millisecond)
	if start != 0 || end != 5*time.Millisecond {
		t.Errorf("booking [%v,%v], want [0,5ms]", start, end)
	}
}

func TestResourceAccounting(t *testing.T) {
	r := new(Resource)
	r.Book(0, 10*time.Millisecond)
	r.Book(0, 30*time.Millisecond)
	if got := r.BusyTime(); got != 40*time.Millisecond {
		t.Errorf("BusyTime = %v, want 40ms", got)
	}
	if got := r.Requests(); got != 2 {
		t.Errorf("Requests = %d, want 2", got)
	}
}

func TestResourceFreeAt(t *testing.T) {
	r := new(Resource)
	if r.FreeAt() != 0 {
		t.Errorf("idle FreeAt = %v, want 0", r.FreeAt())
	}
	r.Book(0, 25*time.Millisecond)
	if r.FreeAt() != 25*time.Millisecond {
		t.Errorf("FreeAt = %v, want 25ms", r.FreeAt())
	}
}

func TestJitterDeterminism(t *testing.T) {
	a := NewJitter(42, 0.05)
	b := NewJitter(42, 0.05)
	for i := 0; i < 100; i++ {
		if a.Factor() != b.Factor() {
			t.Fatal("same seed must replay the same factors")
		}
	}
}

func TestJitterDisabled(t *testing.T) {
	j := NewJitter(1, 0)
	if got := j.Scale(time.Second); got != time.Second {
		t.Errorf("disabled jitter changed input: %v", got)
	}
	var nilJ *Jitter
	if got := nilJ.Scale(time.Second); got != time.Second {
		t.Errorf("nil jitter changed input: %v", got)
	}
	if nilJ.Factor() != 1 {
		t.Error("nil jitter factor should be 1")
	}
}

func TestJitterStaysPositive(t *testing.T) {
	j := NewJitter(7, 3.0) // absurdly large rel to hit the clamp
	for i := 0; i < 1000; i++ {
		if d := j.Scale(time.Second); d <= 0 {
			t.Fatalf("jitter produced non-positive duration %v", d)
		}
	}
}
