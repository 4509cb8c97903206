package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull reports that a non-blocking submission found the
// admission queue at capacity. Handlers translate it into load shedding
// (429 + Retry-After) instead of parking the request on backpressure.
var ErrQueueFull = errors.New("pool: admission queue full")

// Pool is a bounded worker pool for running independent simulations on
// parallel goroutines. Every simulation builds its own resources, so
// concurrent runs never share mutable state; the pool only bounds how
// many are in flight at once. It backs the service's request fan-out and
// the experiment sweeps, turning an N-way configuration grid into a
// near-linear speedup on multicore.
//
// Admission is bounded separately from execution: the task queue holds
// at most queueDepth entries beyond the running workers. Callers choose
// their overload behaviour per submission — TrySubmit sheds immediately
// when the queue is full, and SubmitContext waits but abandons the
// attempt when the caller's context ends. Batch callers like the
// experiment sweeps, which have no client to shed for, go through Map
// (MapIndexed), which waits on backpressure under the caller's context.
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

// NewPool starts a pool of the given size; workers <= 0 selects
// runtime.NumCPU(). The admission queue defaults to one slot per worker.
// Close the pool to release its goroutines.
func NewPool(workers int) *Pool {
	return NewPoolQueue(workers, 0)
}

// NewPoolQueue starts a pool with an explicit admission-queue depth:
// how many tasks may wait beyond the ones executing (<= 0 selects the
// default of one slot per worker). A short queue keeps submitters from
// blocking on momentary bursts without letting waiting work grow
// unboundedly under sustained overload — the knob behind dgxsimd's
// -queue-depth flag.
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
// whole daemon. Map wraps its tasks to convert panics into errors before
// they reach here, so this catch only fires for tasks handed straight to
// SubmitContext or TrySubmit.
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
// backpressure counts as waiting too. done, when set, runs after the
// task is counted complete: a caller that waits on it (Map) then finds
// Stats already agreeing.
func (p *Pool) wrap(fn, done func()) func() {
	enqueued := time.Now()
	return func() {
		p.queueWaitNs.Add(time.Since(enqueued).Nanoseconds())
		p.queued.Add(-1)
		p.active.Add(1)
		p.run(fn)
		p.active.Add(-1)
		p.completed.Add(1)
		if done != nil {
			done()
		}
	}
}

// SubmitContext enqueues a task, waiting on backpressure only as long as
// the context lives. It returns the context's error if the caller gives
// up (deadline passed, client disconnected) before a queue slot opens —
// in which case fn will never run.
func (p *Pool) SubmitContext(ctx context.Context, fn func()) error {
	return p.submitContext(ctx, fn, nil)
}

// submitContext is SubmitContext with a completion hook (see wrap).
func (p *Pool) submitContext(ctx context.Context, fn, done func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.queued.Add(1)
	select {
	case p.tasks <- p.wrap(fn, done):
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
	case p.tasks <- p.wrap(fn, nil):
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

// Map runs fn(0..n-1) on the pool and blocks until all calls return or
// the context is cancelled. Results are the caller's to collect — by
// index, so output order never depends on completion order. The first
// error (lowest index) wins; once the context is cancelled remaining
// indices are skipped, submissions stop waiting on backpressure, and
// each fn receives the context so started cells can abort mid-simulation
// instead of running to completion.
func (p *Pool) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && i < firstIdx {
			firstErr, firstIdx = err, i
		}
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		if ctx.Err() != nil {
			wg.Done()
			continue
		}
		// wg.Done is the task's completion hook, so it runs after the
		// pool has counted the task complete.
		err := p.submitContext(ctx, func() {
			if ctx.Err() != nil {
				return
			}
			if err := p.call(ctx, i, fn); err != nil {
				record(i, err)
			}
		}, wg.Done)
		if err != nil {
			// The context ended while this submission waited for a queue
			// slot; the remaining indices are skipped by the check above.
			wg.Done()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// call invokes fn(ctx, i), converting a panic into an ordinary error so
// one poisoned grid cell surfaces as a 500 on its own request instead of
// crashing the daemon (and the other cells) with it.
func (p *Pool) call(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			err = fmt.Errorf("task %d: panic: %v", i, r)
		}
	}()
	if err = fn(ctx, i); err != nil {
		err = fmt.Errorf("task %d: %w", i, err)
	}
	return err
}

// MapIndexed runs fn over 0..n-1 on the pool and returns the results in
// index order — the deterministic-output primitive the sweep endpoints
// and the experiment tables are built on.
func MapIndexed[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Map(ctx, n, func(_ context.Context, i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
