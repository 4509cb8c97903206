// Package sim is the timing kernel the whole system model runs on: list
// scheduling on FIFO resources plus seeded jitter.
//
// Every contended facility (a NVLink direction, a DMA copy engine, a GPU
// compute pipe, a host API thread) is a Resource. A caller that knows when
// its work becomes ready and how long it takes books it, and gets the
// reservation's start and end back at once; dependencies are carried by
// passing one booking's end as the next one's readiness. No clock or event
// calendar is needed, so a run is deterministic by construction. All
// stochastic behaviour (run-to-run jitter used to reproduce the paper's
// error bars) comes from an explicitly seeded Jitter source, so any
// experiment can be replayed exactly.
package sim

import "time"

// Resource models a serially-reusable facility with FIFO service: a NVLink
// direction, a DMA copy engine, a GPU compute pipe. Requests whose service
// time is known at submission are scheduled back-to-back; this is exact for
// FIFO queues and avoids simulating the queue explicitly.
//
// The zero Resource is idle and ready to book, so a run's resources can
// live by value in one slab. A resource carries no name: whoever owns it
// names it (the profile's tracks come from the machine's name tables).
type Resource struct {
	busyUntil time.Duration

	// Accounting.
	busy     time.Duration
	requests int64
}

// Book reserves dur of service starting no earlier than ready and returns
// the reservation's start and end. Because service is FIFO and service
// times are known at submission, the end time is fully determined at
// booking time: the reservation joins the queue behind every earlier
// booking, whatever their ready times.
func (r *Resource) Book(ready, dur time.Duration) (start, end time.Duration) {
	start = r.busyUntil
	if start < ready {
		start = ready
	}
	end = start + dur
	r.busyUntil = end
	r.busy += dur
	r.requests++
	return start, end
}

// BookRun accounts n reservations totalling busy that the caller
// scheduled back to back in closed form, the last ending at end: the
// batch form of n Book calls with no other booking between them. end
// must be at least FreeAt, as it is for any run Book would serve, since
// FIFO service never finishes before the work already queued.
func (r *Resource) BookRun(n int64, busy, end time.Duration) {
	r.busyUntil = end
	r.busy += busy
	r.requests += n
}

// FreeAt returns the time at which all currently queued service completes.
func (r *Resource) FreeAt() time.Duration { return r.busyUntil }

// FreeSince returns FreeAt measured from floor, clamped at zero. When no
// later booking is ready before floor, a free time at or before floor
// delays nothing (Book starts at the readiness), so two resources whose
// FreeSince agree serve every such booking alike, shifted by the
// difference of their floors.
func (r *Resource) FreeSince(floor time.Duration) time.Duration {
	return max(r.busyUntil-floor, 0)
}

// BusyTime returns the total service time accumulated so far.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// Requests returns the number of requests booked so far.
func (r *Resource) Requests() int64 { return r.requests }
