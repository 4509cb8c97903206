package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

var (
	errLaunch = errors.New("launch refused")
	errWork   = errors.New("work failed")
)

// fuzzCaller is one Do call of a fuzz script. Its work, if a flight ever
// runs it, yields workValue(id).
type fuzzCaller struct {
	id          int
	failsLaunch bool
	cancel      context.CancelFunc
	done        chan struct{}
	val         int
	how         Outcome
	err         error
}

func workValue(id int) int { return 1000 + id }

// fuzzHarness drives a Group from a byte script. Launches are deferred:
// a flight runs only when the script finishes it, on the script's own
// goroutine, so the script decides when work happens relative to joins
// and cancellations.
type fuzzHarness struct {
	t       *testing.T
	g       *Group[int, int]
	wg      sync.WaitGroup
	callers []*fuzzCaller

	mu        sync.Mutex
	pending   []func()
	failWork  bool
	runs      map[int]int  // work runs per caller id
	abandoned map[int]bool // the work found its context already cancelled
	produced  map[int]bool // the work returned its value
	added     map[int]bool // values stored with Add
}

func (h *fuzzHarness) do(key int, failsLaunch bool) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &fuzzCaller{id: len(h.callers), failsLaunch: failsLaunch, cancel: cancel, done: make(chan struct{})}
	h.callers = append(h.callers, c)
	launch := func(run func()) error {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.pending = append(h.pending, run)
		return nil
	}
	if failsLaunch {
		launch = func(func()) error { return errLaunch }
	}
	work := func(ctx context.Context) (int, error) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.runs[c.id]++
		if ctx.Err() != nil {
			h.abandoned[c.id] = true
		}
		if h.failWork {
			return 0, errWork
		}
		h.produced[c.id] = true
		return workValue(c.id), nil
	}
	before := h.lookups()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer close(c.done)
		c.val, c.how, c.err = h.g.Do(ctx, key, launch, work)
	}()
	// Let the call reach the Group: its lookup is counted under the same
	// lock as its flight join.
	deadline := time.Now().Add(time.Second)
	for h.lookups() == before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	runtime.Gosched()
}

func (h *fuzzHarness) lookups() uint64 {
	st := h.g.Stats()
	return st.Hits + st.Misses
}

// finish runs the oldest launched flight, its work failing if fail.
func (h *fuzzHarness) finish(fail bool) {
	h.mu.Lock()
	if len(h.pending) == 0 {
		h.mu.Unlock()
		return
	}
	run := h.pending[0]
	h.pending = h.pending[1:]
	h.failWork = fail
	h.mu.Unlock()
	run()
	runtime.Gosched()
}

func (h *fuzzHarness) cancel(i int) {
	if len(h.callers) == 0 {
		return
	}
	c := h.callers[i%len(h.callers)]
	c.cancel()
	<-c.done
}

func (h *fuzzHarness) add(key, n int) {
	v := -1 - n
	h.mu.Lock()
	h.added[v] = true
	h.mu.Unlock()
	h.g.Add(key, v)
}

// drain ends the script: every caller leaves, then every launched flight
// runs (each now abandoned).
func (h *fuzzHarness) drain() {
	for _, c := range h.callers {
		c.cancel()
	}
	h.wg.Wait()
	for len(h.pending) > 0 {
		h.finish(false)
	}
}

func (h *fuzzHarness) check(keys int) {
	t := h.t
	for id, n := range h.runs {
		if n > 1 {
			t.Errorf("caller %d's work ran %d times", id, n)
		}
	}
	for key := 0; key < keys; key++ {
		v, ok := h.g.Get(key)
		switch {
		case !ok, h.added[v]:
		case v < workValue(0) || !h.produced[v-workValue(0)]:
			t.Errorf("key %d holds %d, which no successful flight produced", key, v)
		case h.abandoned[v-workValue(0)]:
			t.Errorf("key %d holds %d from an abandoned flight", key, v)
		}
	}
	for _, c := range h.callers {
		if c.err != nil {
			switch {
			case errors.Is(c.err, context.Canceled), errors.Is(c.err, errWork):
			case errors.Is(c.err, errLaunch) && c.failsLaunch:
			default:
				t.Errorf("caller %d: unexpected error %v", c.id, c.err)
			}
			continue
		}
		if c.how == Hit || c.how == Coalesced && h.added[c.val] {
			if !h.added[c.val] && !h.produced[c.val-workValue(0)] {
				t.Errorf("caller %d hit %d, which was never stored", c.id, c.val)
			}
			continue
		}
		// Otherwise the value is the launching caller's, and that caller,
		// unless it left first, saw the same value as its own.
		id := c.val - workValue(0)
		if id < 0 || id >= len(h.callers) || !h.produced[id] {
			t.Errorf("caller %d got %d (%v), which no flight produced", c.id, c.val, c.how)
			continue
		}
		launched := func(how Outcome) bool { return how == Miss || how == Relaunched }
		if launched(c.how) != (id == c.id) {
			t.Errorf("caller %d got caller %d's value as a %v", c.id, id, c.how)
		}
		if l := h.callers[id]; l.err == nil && (l.val != c.val || !launched(l.how)) {
			t.Errorf("caller %d got %d from caller %d's flight, whose launcher got %d (%v)", c.id, c.val, id, l.val, l.how)
		} else if l.err != nil && !errors.Is(l.err, context.Canceled) {
			t.Errorf("caller %d's flight succeeded, but its launcher failed with %v", id, l.err)
		}
	}
}

// FuzzGroup decodes a byte script of Do / caller-cancel / finish /
// failed-launch Do / Add over capacities 1-8 and a handful of keys, and
// checks the Group's invariants: the size never exceeds the capacity, a
// flight's work runs at most once, an abandoned or failed-launch flight
// is never stored, and every caller of a finished flight sees the same
// value.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 0, 0})          // miss, coalesce, finish, hit
	f.Add([]byte{0, 0, 1, 3, 1, 0, 1, 1, 0})          // failed launch rejoined by a waiter
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 1, 1, 2, 0})    // every caller leaves, then the work runs
	f.Add([]byte{3, 4, 0, 0, 1, 4, 2, 0, 3, 2, 1, 0}) // adds and evictions around a flight
	f.Add([]byte{7, 0, 0, 2, 1, 0, 0, 2, 0, 0, 2})    // failed work, then a fresh flight
	const keys = 4
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 64 {
			return
		}
		max := 1 + int(script[0]%8)
		h := &fuzzHarness{
			t: t, g: New[int, int](max),
			runs: map[int]int{}, abandoned: map[int]bool{}, produced: map[int]bool{}, added: map[int]bool{},
		}
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i]%5, int(script[i+1])
			switch op {
			case 0:
				h.do(arg%keys, false)
			case 1:
				h.cancel(arg)
			case 2:
				h.finish(arg%2 == 1)
			case 3:
				h.do(arg%keys, true)
			case 4:
				h.add(arg%keys, i)
			}
			if n := h.g.Stats().Size; n > max {
				t.Fatalf("size %d exceeds capacity %d", n, max)
			}
		}
		h.drain()
		h.check(keys)
	})
}
