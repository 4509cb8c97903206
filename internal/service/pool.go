package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull reports that a non-blocking submission found the
// admission queue at capacity. Handlers translate it into load shedding
// (429 + Retry-After) instead of parking the request on backpressure.
var ErrQueueFull = errors.New("pool: admission queue full")

// Pool is the daemon's admission point: a bounded worker pool that runs
// the simulations of cache misses. Every simulation builds its own
// resources, so concurrent runs never share mutable state; the pool only
// bounds how many are in flight at once. Grids reach it cell by cell
// through the request's admitter; the ordering fan-out in front of it is
// Each.
//
// Admission is bounded separately from execution: the task queue holds
// at most queueDepth entries beyond the running workers. Callers choose
// their overload behaviour per submission — TrySubmit sheds immediately
// when the queue is full, and SubmitContext waits but abandons the
// attempt when the caller's context ends.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup // worker goroutines

	workers     int
	queueDepth  int
	queued      atomic.Int64 // submitted, not yet started
	active      atomic.Int64 // currently executing
	completed   atomic.Int64
	panics      atomic.Int64 // tasks that panicked (recovered, not fatal)
	queueWaitNs atomic.Int64 // cumulative submit-to-start wait

	closeOnce sync.Once
}

// NewPoolQueue starts a pool of the given size (workers <= 0 selects
// runtime.NumCPU()) with an admission-queue depth: how many tasks may
// wait beyond the ones executing (<= 0 selects the default of one slot
// per worker). A short queue keeps submitters from blocking on momentary
// bursts without letting waiting work grow unboundedly under sustained
// overload — the knob behind dgxsimd's -queue-depth flag. Close the pool
// to release its goroutines.
func NewPoolQueue(workers, queueDepth int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if queueDepth <= 0 {
		queueDepth = workers
	}
	p := &Pool{
		tasks:      make(chan func(), queueDepth),
		workers:    workers,
		queueDepth: queueDepth,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for fn := range p.tasks {
		fn()
	}
}

// run executes one task behind a last-resort recover. net/http's
// per-request recovery only covers handler goroutines; without this, a
// panic inside a task submitted to a worker goroutine would kill the
// whole daemon. The service's cell and cluster runners recover first so
// they can fail their flight, so this catch only fires for a task that
// does not.
func (p *Pool) run(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
		}
	}()
	fn()
}

// wrap stamps a task with queue-wait and occupancy accounting. Queue
// wait is measured from the submit attempt, so time spent blocked on
// backpressure counts as waiting too.
func (p *Pool) wrap(fn func()) func() {
	enqueued := time.Now()
	return func() {
		p.queueWaitNs.Add(time.Since(enqueued).Nanoseconds())
		p.queued.Add(-1)
		p.active.Add(1)
		p.run(fn)
		p.active.Add(-1)
		p.completed.Add(1)
	}
}

// SubmitContext enqueues a task, waiting on backpressure only as long as
// the context lives. It returns the context's error if the caller gives
// up (deadline passed, client disconnected) before a queue slot opens —
// in which case fn will never run.
func (p *Pool) SubmitContext(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.queued.Add(1)
	select {
	case p.tasks <- p.wrap(fn):
		return nil
	case <-ctx.Done():
		p.queued.Add(-1)
		return ctx.Err()
	}
}

// TrySubmit enqueues a task only if a queue slot is free right now,
// returning ErrQueueFull otherwise. It is the admission check behind
// load shedding: a full queue means the daemon is already saturated for
// at least the queue's worth of work, so a new request is better told to
// retry than silently parked.
func (p *Pool) TrySubmit(fn func()) error {
	p.queued.Add(1)
	select {
	case p.tasks <- p.wrap(fn):
		return nil
	default:
		p.queued.Add(-1)
		return ErrQueueFull
	}
}

// recordPanic counts a task panic recovered outside the pool's own
// recovery (the service's cell runner recovers first so it can fail the
// cell's flight; the count still belongs on the pool's gauge).
func (p *Pool) recordPanic() { p.panics.Add(1) }

// Close stops accepting tasks and waits for in-flight ones to finish.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// PoolStats is a snapshot of pool occupancy for /metrics.
type PoolStats struct {
	Workers    int
	QueueDepth int // admission-queue capacity
	Queued     int64
	Active     int64
	Completed  int64
	Panics     int64
	QueueWait  time.Duration // cumulative submit-to-start wait across tasks
}

// Stats snapshots the pool's occupancy counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:    p.workers,
		QueueDepth: p.queueDepth,
		Queued:     p.queued.Load(),
		Active:     p.active.Load(),
		Completed:  p.completed.Load(),
		Panics:     p.panics.Load(),
		QueueWait:  time.Duration(p.queueWaitNs.Load()),
	}
}
