package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// occupyPool parks blocking tasks on the pool until every worker and
// every admission-queue slot is taken, and returns the release
// function. It waits for the occupation to be observable in the pool
// stats, so a subsequent TrySubmit deterministically sheds.
func occupyPool(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	st := p.Stats()
	blocker := make(chan struct{})
	total := st.Workers + st.QueueDepth
	var parked sync.WaitGroup
	parked.Add(total)
	for i := 0; i < total; i++ {
		go p.SubmitContext(context.Background(), func() { parked.Done(); <-blocker })
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Active == int64(st.Workers) && st.Queued == int64(st.QueueDepth) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(blocker) })
		parked.Wait()
	}
}

// A full admission queue must shed new simulations with 429 +
// Retry-After — never park the request — and the daemon must answer
// normally again the moment the queue drains.
func TestFullQueueShedsWith429(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := occupyPool(t, svc.pool)
	defer release()

	const floods = 20
	type outcome struct {
		status     int
		retryAfter string
		body       string
	}
	outcomes := make([]outcome, floods)
	var wg sync.WaitGroup
	for i := 0; i < floods; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct workloads: nothing caches, nothing coalesces —
			// every request faces the admission check.
			resp, body := post(t, ts.URL+"/v1/simulate",
				core.Workload{Model: "lenet", GPUs: 1, Batch: 8 + i, Images: 4096})
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("Retry-After"), string(body)}
		}()
	}
	wg.Wait()

	for i, o := range outcomes {
		if o.status != http.StatusTooManyRequests {
			t.Errorf("flood %d: status = %d, want 429 (body %q)", i, o.status, o.body)
		}
		if o.retryAfter == "" {
			t.Errorf("flood %d: shed response missing Retry-After", i)
		}
	}

	// The shed is visible on /metrics, and the pool never grew past its
	// bounds.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("dgxsimd_shed_total %d", floods); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics missing %q", want)
	}
	if !strings.Contains(string(metrics), "dgxsimd_admission_queue_capacity 1") {
		t.Error("/metrics missing the admission-queue capacity gauge")
	}
	st := svc.PoolStats()
	if st.Queued > int64(st.QueueDepth) {
		t.Errorf("queued %d tasks past the queue depth %d", st.Queued, st.QueueDepth)
	}

	// Drain and verify full recovery: health, then a real simulation.
	release()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the flood: %v %v", resp, err)
	}
	resp2, _ := post(t, ts.URL+"/v1/simulate", core.Workload{Model: "lenet", GPUs: 1, Batch: 4, Images: 4096})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("simulate after drain: status = %d", resp2.StatusCode)
	}
}

// Timeout is the one per-request deadline knob; unset or negative, it
// is 60 s.
func TestTimeoutDefault(t *testing.T) {
	for _, tc := range []struct{ set, want time.Duration }{
		{0, 60 * time.Second},
		{-time.Second, 60 * time.Second},
		{5 * time.Second, 5 * time.Second},
	} {
		svc := NewServer(Config{Workers: 1, Timeout: tc.set})
		if svc.cfg.Timeout != tc.want {
			t.Errorf("Timeout %v: server deadline = %v, want %v", tc.set, svc.cfg.Timeout, tc.want)
		}
		svc.Close()
	}
}

// A deadline that expires while a cell is still waiting for admission is
// the server's overload, not the workload's slowness: 503 + Retry-After,
// and it outranks the sibling cells' context errors.
func TestDeadlineWhileQueuedShedsWith503(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Timeout: 50 * time.Millisecond})
	// Occupy the lone worker but leave the queue slot free: a compare's
	// first cell admits (TrySubmit), its second blocks in SubmitContext
	// until the deadline burns down.
	blocker := make(chan struct{})
	started := make(chan struct{})
	svc.pool.SubmitContext(context.Background(), func() { close(started); <-blocker })
	<-started

	done := make(chan struct{})
	var status int
	var retryAfter string
	go func() {
		defer close(done)
		resp, _ := post(t, ts.URL+"/v1/compare", core.Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 4096})
		status, retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
	}()
	// Wait until the first cell is admitted (it occupies the one queue
	// slot), let the request deadline burn out while the second cell is
	// still parked in SubmitContext, then free the worker so the admitted
	// cell can drain.
	deadline := time.Now().Add(5 * time.Second)
	for svc.pool.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first compare cell was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(120 * time.Millisecond)
	close(blocker)
	select {
	case <-time.After(5 * time.Second):
		t.Fatal("compare request never returned")
	case <-done:
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if retryAfter == "" {
		t.Error("503 shed missing Retry-After")
	}
}

// k identical concurrent misses must run exactly one simulation: one
// leader (X-Cache: MISS), k-1 coalesced subscribers with byte-identical
// bodies, and dgxsimd_coalesced_total counting them.
func TestIdenticalConcurrentMissesCoalesce(t *testing.T) {
	const k = 8
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Park the lone worker so the leader's task sits in the queue while
	// the other k-1 requests arrive and subscribe to its flight.
	blocker := make(chan struct{})
	started := make(chan struct{})
	svc.pool.SubmitContext(context.Background(), func() { close(started); <-blocker })
	<-started

	wl := core.Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 4096}
	type outcome struct {
		status int
		disp   string
		body   string
	}
	outcomes := make([]outcome, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/simulate", wl)
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("X-Cache"), string(body)}
		}()
	}
	// Wait until all k are inside the handler, give them a beat to reach
	// the flight group, then let the leader run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight := metricLine(t, renderMetrics(svc), `dgxsimd_inflight{path="/v1/simulate"} `)
		if inflight == fmt.Sprint(k) {
			break
		}
		if time.Now().After(deadline) {
			close(blocker) // unwedge cleanup before failing
			t.Fatalf("only %s/%d requests in flight", inflight, k)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(blocker)
	wg.Wait()

	var miss, coalesced int
	for i, o := range outcomes {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %q)", i, o.status, o.body)
		}
		if o.body != outcomes[0].body {
			t.Errorf("request %d: body differs from request 0", i)
		}
		switch o.disp {
		case "MISS":
			miss++
		case "COALESCED":
			coalesced++
		default:
			t.Errorf("request %d: X-Cache = %q", i, o.disp)
		}
	}
	if miss != 1 || coalesced != k-1 {
		t.Errorf("dispositions: %d MISS, %d COALESCED; want 1 and %d", miss, coalesced, k-1)
	}
	// Exactly two pool tasks ever ran: the parked blocker and the one
	// leader simulation. The k-1 subscribers consumed no pool slot.
	if got := svc.PoolStats().Completed; got != 2 {
		t.Errorf("pool completed %d tasks, want 2 (blocker + one simulation)", got)
	}
	if gotCoalesced := svc.coalesced.Load(); gotCoalesced != uint64(k-1) {
		t.Errorf("dgxsimd_coalesced_total = %d, want %d", gotCoalesced, k-1)
	}
}

// Satellite regression: a caller that gives up while its submission is
// still blocked on a full queue must not leave the task behind — it
// never runs, and the worker pool drains back to idle.
func TestSubmitContextCancelledWhileQueuedNeverRuns(t *testing.T) {
	p := NewPoolQueue(1, 1)
	defer p.Close()
	release := occupyPool(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.SubmitContext(ctx, func() { ran.Store(true) })
	}()
	time.Sleep(10 * time.Millisecond) // let the submission park on the full queue
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("SubmitContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitContext still blocked after cancellation")
	}

	release()
	waitIdle(t, p)
	if ran.Load() {
		t.Error("cancelled submission's task ran anyway")
	}
}

// TrySubmit against a saturated pool sheds immediately with ErrQueueFull
// and leaves the queue gauge untouched.
func TestTrySubmitShedsWhenSaturated(t *testing.T) {
	p := NewPoolQueue(1, 2)
	defer p.Close()
	release := occupyPool(t, p)
	defer release()

	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit = %v, want ErrQueueFull", err)
	}
	if got := p.Stats().Queued; got != 2 {
		t.Errorf("Queued = %d after a shed, want 2", got)
	}
}

// waitIdle polls until the pool has no queued or active tasks.
func waitIdle(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Active == 0 && st.Queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// Satellite regression: X-Cache-Hits counts the request's own cache
// hits. Two concurrent sweeps — one fully warmed, one fully cold — must
// report their own hit counts exactly, not a share of a global delta.
func TestSweepCacheHitsArePerRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	warm := SweepRequest{
		Base:    core.Workload{Images: 4096},
		Models:  []string{"lenet"},
		GPUs:    []int{1, 2},
		Batches: []int{16, 32},
	}
	// Warm its four cells.
	if resp, body := post(t, ts.URL+"/v1/sweep", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup sweep: %d (%s)", resp.StatusCode, body)
	}

	cold := SweepRequest{
		Base:    core.Workload{Images: 4096},
		Models:  []string{"lenet"},
		GPUs:    []int{4, 8},
		Batches: []int{48, 64},
	}
	var (
		wg       sync.WaitGroup
		warmHits string
		coldHits string
		warmOK   bool
		coldOK   bool
		warmBody []byte
		coldBody []byte
		warmResp *http.Response
		coldResp *http.Response
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		warmResp, warmBody = post(t, ts.URL+"/v1/sweep", warm)
		warmHits, warmOK = warmResp.Header.Get("X-Cache-Hits"), warmResp.StatusCode == http.StatusOK
	}()
	go func() {
		defer wg.Done()
		coldResp, coldBody = post(t, ts.URL+"/v1/sweep", cold)
		coldHits, coldOK = coldResp.Header.Get("X-Cache-Hits"), coldResp.StatusCode == http.StatusOK
	}()
	wg.Wait()
	if !warmOK {
		t.Fatalf("warm sweep failed: %s", warmBody)
	}
	if !coldOK {
		t.Fatalf("cold sweep failed: %s", coldBody)
	}
	if warmHits != "4" {
		t.Errorf("warmed sweep X-Cache-Hits = %q, want 4", warmHits)
	}
	if coldHits != "0" {
		t.Errorf("cold sweep X-Cache-Hits = %q, want 0 despite the concurrent warm sweep", coldHits)
	}
}
