package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	err := p.Map(context.Background(), 100, func(_ context.Context, i int) error {
		n.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
	st := p.Stats()
	if st.Completed != 100 || st.Active != 0 || st.Queued != 0 {
		t.Errorf("stats after drain = %+v", st)
	}
	if st.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Workers)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var cur, peak atomic.Int64
	err := p.Map(context.Background(), 50, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > workers {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", peak.Load(), workers)
	}
}

func TestPoolMapFirstErrorWins(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	boom := errors.New("boom")
	err := p.Map(context.Background(), 64, func(_ context.Context, i int) error {
		if i == 7 || i == 40 {
			return fmt.Errorf("index %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map error = %v, want wrapped boom", err)
	}
	// The lowest failing index must be the one reported, regardless of
	// completion order.
	if got := err.Error(); got != "task 7: index 7: boom" {
		t.Errorf("Map error = %q, want the lowest index's", got)
	}
}

func TestPoolMapHonoursCancellation(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.Map(ctx, 1000, func(_ context.Context, i int) error {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map after cancel = %v, want context.Canceled", err)
	}
	if ran.Load() >= 1000 {
		t.Error("cancellation should skip the tail of the grid")
	}
}

func TestMapIndexedPreservesOrder(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	out, err := MapIndexed(context.Background(), p, 64, func(i int) (string, error) {
		// Stagger completions so late indices finish first.
		time.Sleep(time.Duration(64-i) * 100 * time.Microsecond)
		return fmt.Sprintf("r%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("r%d", i) {
			t.Fatalf("out[%d] = %q; results must be indexed, not completion-ordered", i, v)
		}
	}
}

func TestPoolDefaultsToNumCPU(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Stats().Workers < 1 {
		t.Error("default pool should have at least one worker")
	}
}

// A panic inside a Map task must come back as that index's error — not
// kill the worker goroutine, not poison later Maps.
func TestPoolMapPanicBecomesError(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	err := p.Map(context.Background(), 16, func(_ context.Context, i int) error {
		if i == 3 {
			panic("boom")
		}
		ran.Add(1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("Map error = %v, want a task 3 panic error", err)
	}
	if got := p.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
	// The pool must still be fully operational afterwards.
	var again atomic.Int64
	if err := p.Map(context.Background(), 8, func(_ context.Context, i int) error {
		again.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("Map after a panic = %v", err)
	}
	if again.Load() != 8 {
		t.Errorf("post-panic Map ran %d/8 tasks", again.Load())
	}
}

// Tasks handed straight to SubmitContext have no error channel, so the
// worker's own recover is the last line of defense: the panic is counted and the worker survives
// to run the next task.
func TestPoolWorkerRecoversRawSubmitPanic(t *testing.T) {
	p := NewPool(1) // one worker: the survivor must be the same goroutine
	defer p.Close()
	p.SubmitContext(context.Background(), func() { panic("boom") })
	done := make(chan struct{})
	p.SubmitContext(context.Background(), func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker died after a panicking task")
	}
	if got := p.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

// Queue wait accumulates when tasks outnumber workers.
func TestPoolQueueWaitAccumulates(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	err := p.Map(context.Background(), 4, func(_ context.Context, i int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// With one worker and 5ms tasks, the last task waited >= ~15ms; any
	// positive total proves the plumbing without timing flakiness.
	if got := p.Stats().QueueWait; got <= 0 {
		t.Errorf("QueueWait = %v, want > 0", got)
	}
}
