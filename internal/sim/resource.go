package sim

import "time"

// Resource models a serially-reusable facility with FIFO service: a NVLink
// direction, a DMA copy engine, a GPU compute pipe. Requests whose service
// time is known at submission are scheduled back-to-back; this is exact for
// FIFO queues and avoids simulating the queue explicitly.
type Resource struct {
	eng       *Engine
	name      string
	busyUntil time.Duration

	// Accounting.
	busy     time.Duration
	requests int64
}

// NewResource creates a resource bound to the engine. The name is used only
// for diagnostics and profiling.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the diagnostic name.
func (r *Resource) Name() string { return r.name }

// Serve enqueues a request taking dur of service time and calls done with
// the request's actual start and end times once service completes. Requests
// are served in submission order.
func (r *Resource) Serve(dur time.Duration, done func(start, end time.Duration)) {
	start := r.busyUntil
	if now := r.eng.Now(); start < now {
		start = now
	}
	end := start + dur
	r.busyUntil = end
	r.busy += dur
	r.requests++
	if done != nil {
		r.eng.At(end, func() { done(start, end) })
	}
}

// ServeAfter is like Serve but the request only joins the queue at absolute
// time ready (it models work that becomes eligible in the future, e.g. a
// transfer whose source data is still being produced).
func (r *Resource) ServeAfter(ready time.Duration, dur time.Duration, done func(start, end time.Duration)) {
	if now := r.eng.Now(); ready < now {
		ready = now
	}
	// The queue-head position is claimed now (FIFO by submission), but
	// service cannot begin before the request is ready.
	start := r.busyUntil
	if start < ready {
		start = ready
	}
	end := start + dur
	r.busyUntil = end
	r.busy += dur
	r.requests++
	if done != nil {
		r.eng.At(end, func() { done(start, end) })
	}
}

// Book reserves dur of service starting no earlier than ready and returns
// the reservation's start and end synchronously, without scheduling any
// event. Because service is FIFO and service times are known at submission,
// the end time is fully determined at booking time; models that track their
// own dependencies can therefore schedule analytically and skip the event
// calendar entirely. Bookings still occupy the resource: later Serve/Book
// calls queue behind them.
func (r *Resource) Book(ready, dur time.Duration) (start, end time.Duration) {
	if now := r.eng.Now(); ready < now {
		ready = now
	}
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
func (r *Resource) FreeAt() time.Duration {
	if now := r.eng.Now(); r.busyUntil < now {
		return now
	}
	return r.busyUntil
}

// BusyTime returns the total service time accumulated so far.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// Requests returns the number of requests served (or queued) so far.
func (r *Resource) Requests() int64 { return r.requests }

// Utilization returns busy time divided by horizon. Horizons <= 0 yield 0.
func (r *Resource) Utilization(horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busy) / float64(horizon)
}

// Barrier invokes its callback once Arrive has been called n times. It
// mirrors the synchronous-SGD semantics where GPU 0 must see every worker's
// gradients before updating weights.
type Barrier struct {
	remaining int
	fn        func()
}

// NewBarrier creates a barrier expecting n arrivals. A barrier with n <= 0
// fires immediately upon the first (spurious) Arrive and never again.
func NewBarrier(n int, fn func()) *Barrier {
	return &Barrier{remaining: n, fn: fn}
}

// Arrive records one arrival, firing the callback on the last one.
func (b *Barrier) Arrive() {
	b.remaining--
	if b.remaining <= 0 && b.fn != nil {
		fn := b.fn
		b.fn = nil
		fn()
	}
}

// Remaining returns how many arrivals are still outstanding.
func (b *Barrier) Remaining() int {
	if b.remaining < 0 {
		return 0
	}
	return b.remaining
}
