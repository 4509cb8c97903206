package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// collect runs Each and returns the indices emit saw, in call order.
func collect[T any](ctx context.Context, n, k, window int, fn func(ctx context.Context, i int) (T, error)) ([]int, error) {
	var seen []int
	err := Each(ctx, n, k, window, fn, func(i int, _ T) error {
		seen = append(seen, i)
		return nil
	})
	return seen, err
}

func TestEachPreservesOrder(t *testing.T) {
	var out []string
	err := Each(context.Background(), 64, 8, 0, func(_ context.Context, i int) (string, error) {
		// Stagger completions so late indices finish first.
		time.Sleep(time.Duration(64-i) * 100 * time.Microsecond)
		return fmt.Sprintf("r%d", i), nil
	}, func(i int, v string) error {
		if i != len(out) {
			t.Errorf("emit(%d) after %d results; emission must follow index order", i, len(out))
		}
		out = append(out, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 64 {
		t.Fatalf("emitted %d results, want 64", len(out))
	}
	for i, v := range out {
		if v != fmt.Sprintf("r%d", i) {
			t.Fatalf("out[%d] = %q; results must be indexed, not completion-ordered", i, v)
		}
	}
}

func TestEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	seen, err := collect(context.Background(), 64, 8, 0, func(_ context.Context, i int) (int, error) {
		if i == 7 || i == 40 {
			return 0, fmt.Errorf("index %d: %w", i, boom)
		}
		if i < 7 {
			time.Sleep(2 * time.Millisecond) // index 40 fails first
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Each error = %v, want wrapped boom", err)
	}
	// The lowest failing index must be the one reported, regardless of
	// completion order, and nothing at or past it is emitted.
	if got := err.Error(); got != "index 7: boom" {
		t.Errorf("Each error = %q, want the lowest index's", got)
	}
	if len(seen) != 7 {
		t.Errorf("emitted %v, want indices 0..6", seen)
	}
}

// An overload from any cell is the grid's outcome, even when a lower
// index fails too, and it cancels the cells still running.
func TestEachOverloadWins(t *testing.T) {
	for _, overload := range []error{ErrQueueFull, admissionError{context.DeadlineExceeded}} {
		plain := errors.New("plain failure")
		var sawCancel atomic.Bool
		seen, err := collect(context.Background(), 8, 8, 0, func(ctx context.Context, i int) (int, error) {
			switch i {
			case 0:
				select {
				case <-ctx.Done():
					sawCancel.Store(true)
				case <-time.After(30 * time.Second):
				}
				return 0, plain
			case 5:
				return 0, overload
			}
			return i, nil
		})
		if err != overload {
			t.Errorf("Each error = %v, want the overload %v", err, overload)
		}
		if !sawCancel.Load() {
			t.Errorf("%v: the running cell never saw its context cancelled", overload)
		}
		if len(seen) != 0 {
			t.Errorf("%v: emitted %v past a lower index that never completed", overload, seen)
		}
	}
}

func TestEachHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		_, err := collect(ctx, 1000, 2, 0, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return i, nil
		})
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each after cancel = %v, want context.Canceled", err)
	}
	if ran.Load() >= 1000 {
		t.Error("cancellation should skip the tail of the grid")
	}
}

// Cancelling the caller's context must abort cells that are already
// running — the context reaches each cell, not just the claim loop.
func TestEachCancellationReachesRunningCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{}, 16)
	start := time.Now()
	go func() {
		<-running // first cell is running
		cancel()
	}()
	_, err := collect(ctx, 16, 2, 0, func(ctx context.Context, i int) (int, error) {
		running <- struct{}{}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(30 * time.Second):
			return i, nil // would blow the test deadline if ctx never arrived
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Each took %v to honour cancellation", elapsed)
	}
}

// A panic inside a cell must come back as that index's error — not kill
// the process, not poison later fan-outs.
func TestEachPanicBecomesError(t *testing.T) {
	seen, err := collect(context.Background(), 16, 4, 0, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 3: panic: boom" {
		t.Fatalf("Each error = %v, want a task 3 panic error", err)
	}
	if len(seen) != 3 {
		t.Errorf("emitted %v, want indices 0..2", seen)
	}
	seen, err = collect(context.Background(), 8, 4, 0, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(seen) != 8 {
		t.Fatalf("Each after a panic = %v with %d/8 results", err, len(seen))
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	const k = 3
	var cur, peak atomic.Int64
	_, err := collect(context.Background(), 50, k, 0, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > k {
		t.Errorf("observed %d concurrent cells, bound is %d", peak.Load(), k)
	}
}

// FuzzEach checks Each against a sequential reference. The script's
// first four bytes are n, k, window and the index whose emit fails; each
// later byte scripts one cell: its low three bits pick success (0-4),
// an error (5), a panic (6) or an overload (7), and the rest a delay in
// 10 µs steps.
func FuzzEach(f *testing.F) {
	f.Add([]byte{8, 2, 0, 255})
	f.Add([]byte{16, 3, 4, 255, 0, 8, 16, 5, 0, 0, 7})
	f.Add([]byte{12, 8, 2, 6, 240, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{10, 4, 0, 9, 0, 0, 6, 0, 15})
	f.Add([]byte{20, 1, 1, 255, 0, 0, 0, 7, 5})
	f.Add([]byte{40, 8, 4, 5, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200}) // slow head, window 4, emit 5 fails
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 4 || len(script) > 64 {
			return
		}
		n, k, window, emitFail := int(script[0]%33), int(script[1]%9), int(script[2]%12), int(script[3])
		op := func(i int) byte {
			if 4+i < len(script) {
				return script[4+i]
			}
			return 0
		}
		maxOut := window
		if maxOut <= 0 || maxOut > n {
			maxOut = n
		}
		maxRun := max(1, min(k, maxOut))
		errs := make([]error, n)
		for i := range errs {
			errs[i] = fmt.Errorf("cell %d failed", i)
		}
		emitErr := errors.New("emit failed")

		// The sequential reference: the first failure in index order, and
		// whether any overload is scripted at or before it.
		first, firstOverload := n, n
		for i := n - 1; i >= 0; i-- {
			if op(i)%8 >= 5 || i == emitFail {
				first = i
			}
			if op(i)%8 == 7 {
				firstOverload = i
			}
		}

		goroutines := runtime.NumGoroutine()
		var started, emittedCount, running, worstOut, worstRun atomic.Int64
		var overloadRan atomic.Bool
		raise := func(v *atomic.Int64, x int64) {
			for {
				old := v.Load()
				if x <= old || v.CompareAndSwap(old, x) {
					return
				}
			}
		}
		var seen []int
		err := Each(context.Background(), n, k, window, func(ctx context.Context, i int) (int, error) {
			raise(&worstOut, started.Add(1)-emittedCount.Load())
			raise(&worstRun, running.Add(1))
			defer running.Add(-1)
			if d := time.Duration(op(i)>>3) * 10 * time.Microsecond; d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
			switch op(i) % 8 {
			case 5:
				return 0, errs[i]
			case 6:
				panic(fmt.Sprintf("cell %d", i))
			case 7:
				overloadRan.Store(true)
				return 0, ErrQueueFull
			}
			return i, nil
		}, func(i, v int) error {
			emittedCount.Add(1)
			seen = append(seen, i)
			if v != i {
				t.Errorf("emit(%d) got cell %d's value", i, v)
			}
			if i == emitFail {
				return emitErr
			}
			return nil
		})

		for j, i := range seen {
			if i != j {
				t.Fatalf("emitted %v, want a prefix 0..m-1 in order", seen)
			}
		}
		if got := worstOut.Load(); got > int64(maxOut) {
			t.Errorf("%d cells outstanding, window allows %d", got, maxOut)
		}
		if got := worstRun.Load(); got > int64(maxRun) {
			t.Errorf("%d cells ran at once, k allows %d", got, maxRun)
		}
		wantSeen := first
		if first < n && first == emitFail && op(first)%8 < 5 {
			wantSeen = first + 1 // the failing emit was called
		}
		switch {
		case overloadRan.Load() != errors.Is(err, ErrQueueFull):
			// Each receives every result it claimed before returning, so
			// an overload that ran must win, and only then may one win.
			t.Fatalf("Each = %v, but an overload ran: %v", err, overloadRan.Load())
		case errors.Is(err, ErrQueueFull):
			if len(seen) > wantSeen {
				t.Errorf("emitted %d cells past the overload, reference stops at %d", len(seen), wantSeen)
			}
		case firstOverload <= first && firstOverload < n:
			t.Fatalf("Each = %v, want the overload at cell %d", err, firstOverload)
		default:
			// Each returns a failure as is, and every scripted failure
			// has its own text, so the text identifies it.
			var want error
			if first < n {
				switch op(first) % 8 {
				case 5:
					want = errs[first]
				case 6:
					want = fmt.Errorf("task %d: panic: cell %d", first, first)
				default:
					want = emitErr
				}
			}
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("Each = %v, want %v", err, want)
			}
			if len(seen) != wantSeen {
				t.Fatalf("emitted %v, want indices 0..%d", seen, wantSeen-1)
			}
		}

		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > goroutines {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines: %d before Each, %d after", goroutines, runtime.NumGoroutine())
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
}
