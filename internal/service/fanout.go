package service

import (
	"context"
	"fmt"
	"sync"
)

// Each is the one ordered fan-out behind every grid: the buffered and
// streamed sweeps, /v1/compare, /v1/optimize and the experiment tables.
// It runs fn(ctx, 0..n-1) on at most k goroutines, which claim indices in
// order, and hands each result to emit in index order, so completion
// order never reaches the output. emit calls never overlap; each runs on
// whichever of those goroutines finds the next index ready, so a
// collector's emit costs no extra hand-off. At most window indices are
// ever claimed but not yet emitted (window <= 0 means no bound beyond n),
// which keeps a streamed grid's memory independent of its size.
//
// Each stops at the first failure in index order — an error from fn or
// emit, or a panic in either (which becomes that index's error) — and
// returns it as is. An overload error (ErrQueueFull, or a deadline spent
// awaiting admission) from any index wins outright: it stops the grid at
// once, since a 429 or 503 tells the client more than the fallout of the
// sibling cells would. Once the outcome is known, the context passed to
// fn is cancelled so running cells abort. If the caller's context ends
// first, Each claims nothing more and returns its error unless a cell
// failed. Each returns only after its goroutines have exited.
func Each[T any](ctx context.Context, n, k, window int, fn func(ctx context.Context, i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if window <= 0 || window > n {
		window = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type slot struct {
		v  T
		ok bool // holds a finished cell's value
	}
	tokens := make(chan struct{}, window) // one per claimed, unemitted index
	var (
		mu       sync.Mutex // guards the rest
		ring     = make([]slot, window)
		next     int   // the next index to claim
		emitted  int   // indices handed to emit
		end      = n   // the lowest failing index seen; -1 once an overload is
		failed   error // its error
		emitting bool  // a goroutine is handing ready cells to emit
	)
	fail := func(i int, err error) {
		if end >= 0 && (overloaded(err) || i < end) {
			end, failed = i, err
			if overloaded(err) {
				end = -1
			}
		}
	}
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for {
			select {
			case tokens <- struct{}{}:
			case <-cctx.Done():
				return
			}
			mu.Lock()
			i := next
			if i >= end || cctx.Err() != nil {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			var v T
			err := guard(i, func() (err error) {
				v, err = fn(cctx, i)
				return err
			})
			mu.Lock()
			if err != nil {
				fail(i, err)
			} else {
				ring[i%window] = slot{v, true}
			}
			// Hand the ready prefix to emit, one cell at a time and
			// outside the lock; a cell finishing meanwhile is left to
			// this loop.
			for !emitting && emitted < end && ring[emitted%window].ok {
				j, v := emitted, ring[emitted%window].v
				ring[j%window] = slot{} // release the value once handed on
				emitting = true
				mu.Unlock()
				err := guard(j, func() error { return emit(j, v) })
				<-tokens
				mu.Lock()
				emitting = false
				if err != nil {
					fail(j, err)
					break
				}
				emitted++
			}
			if emitted >= end {
				cancel() // the outcome is known; running cells are moot
			}
			mu.Unlock()
		}
	}
	for range max(1, min(k, window)) {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
	if failed != nil {
		return failed
	}
	return ctx.Err()
}

// guard runs f for index i, converting a panic into that index's error:
// a panic on a fan-out goroutine escapes net/http's per-request
// recovery, so one poisoned cell would otherwise kill the process.
func guard(i int, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %d: panic: %v", i, r)
		}
	}()
	return f()
}
