package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a work function that yields v.
func value(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return v, nil }
}

func TestGetAddHitMiss(t *testing.T) {
	g := New[string, string](4)
	if _, ok := g.Get("a"); ok {
		t.Fatal("empty group should miss")
	}
	if v, how, err := g.Do(context.Background(), "a", Inline, value("lenet")); err != nil || how != Miss || v != "lenet" {
		t.Fatalf("Do on a cold key = %q, %v, %v; want lenet, miss", v, how, err)
	}
	if v, ok := g.Get("a"); !ok || v != "lenet" {
		t.Fatalf("Get after Do = %q, %v", v, ok)
	}
	if v, how, _ := g.Do(context.Background(), "a", Inline, value("other")); how != Hit || v != "lenet" {
		t.Fatalf("Do on a stored key = %q, %v; want the stored value as a hit", v, how)
	}
	if st := g.Stats(); st.Hits != 2 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / size 1", st)
	}
}

func TestEvictsLRU(t *testing.T) {
	g := New[string, string](2)
	g.Add("a", "a")
	g.Add("b", "b")
	g.Get("a") // refresh a; b is now the LRU
	g.Add("c", "c")
	if _, ok := g.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := g.Get("a"); !ok {
		t.Error("a was recently used and should survive")
	}
	if _, ok := g.Get("c"); !ok {
		t.Error("c was just inserted and should survive")
	}
	if st := g.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction at size 2", st)
	}
}

func TestAddExistingRefreshes(t *testing.T) {
	g := New[string, string](2)
	g.Add("a", "old")
	g.Add("b", "b")
	g.Add("a", "new") // refresh, no eviction
	g.Add("c", "c")   // evicts b, the LRU
	if v, ok := g.Get("a"); !ok || v != "new" {
		t.Errorf("refreshed entry = %q, %v", v, ok)
	}
	if _, ok := g.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New[string, int](0).Stats().Max; got != DefaultMax {
		t.Errorf("default max = %d, want %d", got, DefaultMax)
	}
}

// An evicted key is recomputed by a fresh flight, not resurrected.
func TestEvictedKeyIsRecomputed(t *testing.T) {
	g := New[string, int](2)
	var runs atomic.Int64
	work := func(context.Context) (int, error) { return int(runs.Add(1)), nil }
	ctx := context.Background()
	first, _, _ := g.Do(ctx, "a", Inline, work)
	g.Do(ctx, "b", Inline, work)
	g.Do(ctx, "c", Inline, work) // evicts a
	again, how, err := g.Do(ctx, "a", Inline, work)
	if err != nil || how != Miss || again == first {
		t.Errorf("evicted key = %d, %v, %v; want a fresh value (not %d) from a new flight", again, how, err, first)
	}
	if n := g.Stats().Size; n > 2 {
		t.Errorf("group holds %d values, cap 2", n)
	}
}

// The group is every cache's shared hot structure: hammer it from many
// goroutines so `go test -race` gates it.
func TestConcurrent(t *testing.T) {
	g := New[string, string](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%32)
				if _, ok := g.Get(key); ok {
					continue
				}
				if _, _, err := g.Do(context.Background(), key, Inline, value(key)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Size > 16 {
		t.Errorf("size %d exceeds capacity 16", st.Size)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// waitMisses polls until the group has counted n misses. A miss is
// counted under the same lock as the flight join, so this observes that
// n callers have joined.
func waitMisses(t *testing.T, g *Group[string, string], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Misses < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined", g.Stats().Misses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// k concurrent misses for one key run the work once: one Miss, k-1
// Coalesced, every caller with the same value.
func TestConcurrentMissesShareOneFlight(t *testing.T) {
	const k = 8
	g := New[string, string](4)
	release := make(chan struct{})
	var runs atomic.Int64
	work := func(context.Context) (string, error) {
		runs.Add(1)
		<-release
		return "v", nil
	}
	launch := func(run func()) error { go run(); return nil }
	hows := make(chan Outcome, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := g.Do(context.Background(), "a", launch, work)
			if err != nil || v != "v" {
				t.Errorf("Do = %q, %v", v, err)
			}
			hows <- how
		}()
	}
	waitMisses(t, g, k)
	close(release)
	wg.Wait()
	close(hows)
	count := map[Outcome]int{}
	for how := range hows {
		count[how]++
	}
	if runs.Load() != 1 || count[Miss] != 1 || count[Coalesced] != k-1 {
		t.Errorf("%d runs, outcomes %v; want 1 run, 1 miss and %d coalesced", runs.Load(), count, k-1)
	}
}

// A failed work is returned to the flight's callers and never stored.
func TestErrorsNeverStored(t *testing.T) {
	g := New[string, string](4)
	boom := errors.New("boom")
	fail := func(context.Context) (string, error) { return "", boom }
	if _, _, err := g.Do(context.Background(), "a", Inline, fail); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the work's error", err)
	}
	if g.Stats().Size != 0 {
		t.Fatal("a failed flight was stored")
	}
	if v, how, err := g.Do(context.Background(), "a", Inline, value("ok")); err != nil || how != Miss || v != "ok" {
		t.Errorf("Do after a failure = %q, %v, %v; want a fresh miss", v, how, err)
	}
}

// One caller leaving does not stop a flight others still wait on; the
// last one leaving cancels the work, and the abandoned flight's value
// is never stored.
func TestLastCallerLeavingAbandonsFlight(t *testing.T) {
	g := New[string, string](4)
	started := make(chan context.Context, 1)
	finish := make(chan struct{})
	ran := make(chan struct{})
	var sawCancel bool
	work := func(ctx context.Context) (string, error) {
		started <- ctx
		<-finish
		sawCancel = ctx.Err() != nil
		return "late", nil
	}
	launch := func(run func()) error {
		go func() { run(); close(ran) }()
		return nil
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { _, _, err := g.Do(ctx1, "a", launch, work); errs <- err }()
	wctx := <-started
	go func() { _, _, err := g.Do(ctx2, "a", launch, work); errs <- err }()
	waitMisses(t, g, 2)

	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller = %v, want context.Canceled", err)
	}
	if wctx.Err() != nil {
		t.Fatal("one caller leaving cancelled a flight another caller still waits on")
	}
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller = %v, want context.Canceled", err)
	}
	close(finish)
	<-ran
	if !sawCancel {
		t.Error("the work's context was still live after every caller left")
	}
	if g.Stats().Size != 0 {
		t.Fatal("an abandoned flight's value was stored")
	}
	if v, how, err := g.Do(context.Background(), "a", Inline, value("fresh")); err != nil || how != Miss || v != "fresh" {
		t.Errorf("Do after abandonment = %q, %v, %v; want a fresh flight", v, how, err)
	}
}

// A caller whose flight failed to launch rejoins and launches with its
// own hook, and its rejoin is not a second client lookup: hits+misses
// grows by exactly one per Do call.
func TestFailedLaunchRejoinCountsOnce(t *testing.T) {
	g := New[string, string](4)
	shed := errors.New("queue full")
	waiter := make(chan Outcome, 1)
	go func() {
		for g.Stats().Misses < 1 { // the launcher has started its flight
			time.Sleep(time.Millisecond)
		}
		v, how, err := g.Do(context.Background(), "a", Inline, value("mine"))
		if err != nil || v != "mine" {
			t.Errorf("rejoining caller = %q, %v; want its own flight's value", v, err)
		}
		waiter <- how
	}()
	failing := func(run func()) error {
		waitMisses(t, g, 2) // the waiter has joined this flight
		return shed
	}
	if _, _, err := g.Do(context.Background(), "a", failing, value("launcher's")); !errors.Is(err, shed) {
		t.Fatalf("launcher = %v, want its launch error", err)
	}
	if how := <-waiter; how != Relaunched {
		t.Errorf("rejoining caller outcome = %v, want relaunched (it launched the second flight)", how)
	}
	if st := g.Stats(); st.Hits+st.Misses != 2 {
		t.Errorf("two Do calls counted %d lookups, want exactly 2", st.Hits+st.Misses)
	}
}

// A caller rejoining after a failed launch may find the value already
// stored: it waited on a flight, so it is Coalesced, not a second Hit.
func TestRejoinFindingStoredValueIsCoalesced(t *testing.T) {
	g := New[string, string](4)
	shed := errors.New("queue full")
	waiter := make(chan Outcome, 1)
	go func() {
		for g.Stats().Misses < 1 {
			time.Sleep(time.Millisecond)
		}
		v, how, err := g.Do(context.Background(), "a", Inline, value("mine"))
		if err != nil || v != "stored" {
			t.Errorf("rejoining caller = %q, %v; want the stored value", v, err)
		}
		waiter <- how
	}()
	failing := func(run func()) error {
		waitMisses(t, g, 2)
		g.Add("a", "stored")
		return shed
	}
	if _, _, err := g.Do(context.Background(), "a", failing, value("launcher's")); !errors.Is(err, shed) {
		t.Fatalf("launcher = %v, want its launch error", err)
	}
	if how := <-waiter; how != Coalesced {
		t.Errorf("rejoining caller outcome = %v, want coalesced", how)
	}
	if st := g.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("counters = %+v, want 0 hits and 2 misses", st)
	}
}

// A hit allocates nothing and starts nothing.
func BenchmarkGroupHit(b *testing.B) {
	g := New[string, string](16)
	ctx := context.Background()
	work := value("v")
	g.Do(ctx, "key", Inline, work)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, how, _ := g.Do(ctx, "key", Inline, work); how != Hit {
			b.Fatal("resident key missed")
		}
	}
}
