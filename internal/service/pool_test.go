package service

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// submitAll submits n copies of fn through SubmitContext and waits until
// the pool has counted every one complete.
func submitAll(t *testing.T, p *Pool, n int, fn func()) {
	t.Helper()
	before := p.Stats().Completed
	for i := 0; i < n; i++ {
		if err := p.SubmitContext(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Completed < before+int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("pool never completed %d tasks: %+v", n, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolRunsEverything(t *testing.T) {
	p := NewPoolQueue(4, 0)
	defer p.Close()
	var n atomic.Int64
	submitAll(t, p, 100, func() { n.Add(1) })
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
	p := NewPoolQueue(workers, 0)
	defer p.Close()
	var cur, peak atomic.Int64
	submitAll(t, p, 50, func() {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if peak.Load() > workers {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", peak.Load(), workers)
	}
}

func TestPoolDefaultsToNumCPU(t *testing.T) {
	p := NewPoolQueue(0, 0)
	defer p.Close()
	if p.Stats().Workers < 1 {
		t.Error("default pool should have at least one worker")
	}
}

// Tasks handed straight to SubmitContext have no error channel, so the
// worker's own recover is the last line of defense: the panic is counted and the worker survives
// to run the next task.
func TestPoolWorkerRecoversRawSubmitPanic(t *testing.T) {
	p := NewPoolQueue(1, 0) // one worker: the survivor must be the same goroutine
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
	p := NewPoolQueue(1, 0)
	defer p.Close()
	submitAll(t, p, 4, func() { time.Sleep(5 * time.Millisecond) })
	// With one worker and 5ms tasks, the last task waited >= ~15ms; any
	// positive total proves the plumbing without timing flakiness.
	if got := p.Stats().QueueWait; got <= 0 {
		t.Errorf("QueueWait = %v, want > 0", got)
	}
}
