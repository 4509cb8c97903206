package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBookSynchronousFIFO(t *testing.T) {
	r := new(Resource)
	s1, e1 := r.Book(0, 10*time.Millisecond)
	if s1 != 0 || e1 != 10*time.Millisecond {
		t.Errorf("first booking [%v,%v]", s1, e1)
	}
	// Second booking queues even though its ready time is earlier.
	s2, e2 := r.Book(0, 5*time.Millisecond)
	if s2 != e1 || e2 != e1+5*time.Millisecond {
		t.Errorf("second booking [%v,%v], want [%v,%v]", s2, e2, e1, e1+5*time.Millisecond)
	}
	// A booking ready far in the future leaves a gap.
	s3, _ := r.Book(time.Second, time.Millisecond)
	if s3 != time.Second {
		t.Errorf("future booking start = %v, want 1s", s3)
	}
}

// Book matches a closed-form FIFO reference for any request sequence:
// each request starts at the later of its readiness and the previous
// request's end, and busy time and request count are the sums.
func TestBookMatchesReference(t *testing.T) {
	f := func(reqs []struct {
		Ready uint16
		Dur   uint16
	}) bool {
		r := new(Resource)
		var free, busy time.Duration
		for _, q := range reqs {
			ready := time.Duration(q.Ready) * time.Microsecond
			dur := time.Duration(q.Dur) * time.Microsecond
			wantStart := max(ready, free)
			start, end := r.Book(ready, dur)
			if start != wantStart || end != wantStart+dur {
				return false
			}
			free = end
			busy += dur
		}
		return r.FreeAt() == free && r.BusyTime() == busy && r.Requests() == int64(len(reqs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Properties of Book: end = start + dur; start >= ready; bookings never
// overlap and preserve issue order.
func TestBookProperties(t *testing.T) {
	f := func(reqs []struct {
		Ready uint16
		Dur   uint16
	}) bool {
		r := new(Resource)
		var prevEnd time.Duration
		for _, q := range reqs {
			ready := time.Duration(q.Ready) * time.Microsecond
			dur := time.Duration(q.Dur) * time.Microsecond
			s, end := r.Book(ready, dur)
			if end-s != dur {
				return false
			}
			if s < ready || s < prevEnd {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBookAccountsBusyTime(t *testing.T) {
	r := new(Resource)
	r.Book(0, 3*time.Millisecond)
	r.Book(0, 4*time.Millisecond)
	if r.BusyTime() != 7*time.Millisecond {
		t.Errorf("busy = %v", r.BusyTime())
	}
	if r.Requests() != 2 {
		t.Errorf("requests = %d", r.Requests())
	}
}

// BookRun leaves a resource exactly as the back-to-back Book calls it
// stands for would.
func TestBookRunMatchesBook(t *testing.T) {
	durs := []time.Duration{3 * time.Millisecond, 0, time.Millisecond}
	booked, batched := new(Resource), new(Resource)
	booked.Book(0, time.Millisecond)
	batched.Book(0, time.Millisecond)

	var end, busy time.Duration
	for _, d := range durs {
		_, end = booked.Book(end, d)
		busy += d
	}
	batched.BookRun(int64(len(durs)), busy, end)
	if booked.FreeAt() != batched.FreeAt() || booked.BusyTime() != batched.BusyTime() || booked.Requests() != batched.Requests() {
		t.Errorf("BookRun: free %v busy %v requests %d; Book: free %v busy %v requests %d",
			batched.FreeAt(), batched.BusyTime(), batched.Requests(), booked.FreeAt(), booked.BusyTime(), booked.Requests())
	}
}
