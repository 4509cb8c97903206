package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := NewServer(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// expand materializes a sweep's whole grid, cell by cell.
func expand(sr SweepRequest) []core.Workload {
	grid := make([]core.Workload, sr.Size())
	for i := range grid {
		grid[i] = sr.Cell(i)
	}
	return grid
}

// sweep16 is the acceptance grid: 16 configurations of the fastest
// model (1x2x4x8 GPUs x batches 16/32 x both methods), small epochs so
// the test stays quick.
var sweep16 = SweepRequest{
	Base:    core.Workload{Images: 4096},
	Models:  []string{"lenet"},
	GPUs:    []int{1, 2, 4, 8},
	Batches: []int{16, 32},
	Methods: []core.Method{core.P2P, core.NCCL},
}

// TestSweepMatchesSequentialSimulate is the end-to-end acceptance test:
// a parallel /v1/sweep over 16 configurations must return byte-for-byte
// the same reports as 16 sequential /v1/simulate calls, and a second
// identical sweep must be served entirely from cache.
func TestSweepMatchesSequentialSimulate(t *testing.T) {
	grid := expand(sweep16)
	if len(grid) != 16 {
		t.Fatalf("grid has %d configs, want 16", len(grid))
	}

	// Sequential reference on its own server (its own cold cache).
	_, seqTS := newTestServer(t, Config{Workers: 1})
	sequential := make([][]byte, len(grid))
	for i, wl := range grid {
		resp, body := post(t, seqTS.URL+"/v1/simulate", wl)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate config %d: %d %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "MISS" {
			t.Fatalf("simulate config %d on a cold cache: X-Cache = %q", i, got)
		}
		sequential[i] = bytes.TrimSpace(body)
	}

	// Parallel sweep on a fresh server: cold cache, full fan-out.
	svc, ts := newTestServer(t, Config{Workers: 8})
	resp, body := post(t, ts.URL+"/v1/sweep", sweep16)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != len(grid) || len(sr.Results) != len(grid) {
		t.Fatalf("sweep returned %d/%d results, want %d", sr.Count, len(sr.Results), len(grid))
	}
	for i := range grid {
		if !bytes.Equal(bytes.TrimSpace(sr.Results[i]), sequential[i]) {
			t.Errorf("config %d: parallel sweep result differs from sequential simulate\nsweep: %s\nseq:   %s",
				i, sr.Results[i], sequential[i])
		}
	}
	if hits := resp.Header.Get("X-Cache-Hits"); hits != "0" {
		t.Errorf("cold sweep reported %s cache hits, want 0", hits)
	}

	// The second identical sweep must be served entirely from cache.
	before := svc.CacheStats()
	resp2, body2 := post(t, ts.URL+"/v1/sweep", sweep16)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second sweep: %d %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body, body2) {
		t.Error("second sweep body differs from the first; responses must be deterministic")
	}
	after := svc.CacheStats()
	if got := after.Hits - before.Hits; got != uint64(len(grid)) {
		t.Errorf("second sweep hit the cache %d times, want %d", got, len(grid))
	}
	if hits, _ := strconv.Atoi(resp2.Header.Get("X-Cache-Hits")); hits != len(grid) {
		t.Errorf("X-Cache-Hits = %q, want %d", resp2.Header.Get("X-Cache-Hits"), len(grid))
	}
}

func TestSimulateCacheHitHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wl := core.Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 4096}
	resp1, body1 := post(t, ts.URL+"/v1/simulate", wl)
	if resp1.Header.Get("X-Cache") != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", resp1.Header.Get("X-Cache"))
	}
	resp2, body2 := post(t, ts.URL+"/v1/simulate", wl)
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Errorf("second request X-Cache = %q, want HIT", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit must return identical bytes")
	}
	// A workload that only differs in defaults must hit too.
	resp3, _ := post(t, ts.URL+"/v1/simulate",
		core.Workload{Model: "lenet", GPUs: 2, Batch: 16, Method: core.NCCL, Images: 4096})
	if resp3.Header.Get("X-Cache") != "HIT" {
		t.Error("canonically-equal workload should hit the cache")
	}
}

// The API and the CLI share core.Validate, so a bad config is rejected
// with the same error text the CLI prints.
func TestSimulateRejectsLikeValidate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := core.Workload{Model: "vgg", GPUs: 2, Batch: 16}
	resp, body := post(t, ts.URL+"/v1/simulate", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != CodeBadRequest {
		t.Errorf("error code = %q, want %q", e.Error.Code, CodeBadRequest)
	}
	if want := bad.Validate().Error(); e.Error.Message != want {
		t.Errorf("API error %q differs from core.Validate's %q", e.Error.Message, want)
	}
}

// Model-parallel and hybrid runs neither recompute activations nor fuse
// gradient exchanges, so a workload asking for either is the client's
// error, not a silently ignored option.
func TestSimulateRejectsOptionsTheScheduleIgnores(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, w := range []core.Workload{
		{Model: "alexnet", GPUs: 4, Batch: 32, ModelParallel: true, Checkpointing: true},
		{Model: "alexnet", GPUs: 4, Batch: 32, HybridOWT: true, Checkpointing: true},
		{Model: "alexnet", GPUs: 4, Batch: 32, ModelParallel: true, BucketKB: 4096},
		{Model: "alexnet", GPUs: 4, Batch: 32, HybridOWT: true, BucketKB: 4096},
	} {
		resp, body := post(t, ts.URL+"/v1/simulate", w)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status = %d, want 400 (%s)", w, resp.StatusCode, body)
		}
		d := decodeEnvelope(t, body)
		if d.Code != CodeBadRequest || d.Retryable {
			t.Errorf("%+v: envelope = %+v, want bad_request, not retryable", w, d)
		}
		if want := w.Validate(); want == nil || d.Message != want.Error() ||
			!strings.Contains(d.Message, "only to synchronous data-parallel runs") {
			t.Errorf("%+v: message %q, want core.Validate's rejection (%v)", w, d.Message, want)
		}
	}
}

func TestSweepRejectsBadConfigBeforeRunning(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	req := SweepRequest{
		Base:    core.Workload{Batch: 16},
		Models:  []string{"lenet", "bogus"},
		GPUs:    []int{1},
		Methods: []core.Method{core.NCCL},
	}
	resp, body := post(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `unknown model \"bogus\"`) &&
		!strings.Contains(string(body), "unknown model") {
		t.Errorf("error should name the bad model: %s", body)
	}
	if st := svc.PoolStats(); st.Completed != 0 {
		t.Errorf("%d simulations ran despite the invalid grid", st.Completed)
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compare", core.Workload{Model: "lenet", GPUs: 4, Batch: 16, Images: 4096})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: %d %s", resp.StatusCode, body)
	}
	var out CompareResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.SchemaVersion != SchemaVersion {
		t.Errorf("schemaVersion = %d, want %d", out.SchemaVersion, SchemaVersion)
	}
	if len(out.Results) != 2 || out.Results[0].Method != core.P2P || out.Results[1].Method != core.NCCL {
		t.Fatalf("compare must return [p2p nccl] in order, got %+v", out.Results)
	}
	p, n := out.Results[0].Report, out.Results[1].Report
	if p == nil || n == nil {
		t.Fatalf("compare must return both reports, got %+v", out.Results)
	}
	if p.EpochTime <= 0 || n.EpochTime <= 0 {
		t.Error("degenerate compare reports")
	}
	// The paper's LeNet finding survives the service layer: P2P wins.
	if p.EpochTime >= n.EpochTime {
		t.Error("P2P should beat NCCL for LeNet")
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != len(core.Models()) {
		t.Fatalf("listed %d models, want %d", len(out.Models), len(core.Models()))
	}
	for _, m := range out.Models {
		if m.Name == "" || m.Params <= 0 {
			t.Errorf("degenerate model entry %+v", m)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok\n" {
		t.Errorf("healthz = %q", b)
	}

	post(t, ts.URL+"/v1/simulate", core.Workload{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dgxsimd_requests_total{path="/v1/simulate"} 1`,
		"dgxsimd_cache_misses_total 1",
		"dgxsimd_cache_size 1",
		"dgxsimd_pool_workers",
		`dgxsimd_request_duration_seconds_count{path="/v1/simulate"} 1`,
		"dgxsimd_uptime_seconds",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}

func TestSimulateTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	resp, body := post(t, ts.URL+"/v1/simulate", core.Workload{Model: "inception-v3", GPUs: 8, Batch: 16})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
}

// Every endpoint must answer a wrong-method request with 405 Method Not
// Allowed and an Allow header naming what it accepts — not the 400 "use
// POST" the service used to return.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	endpoints := []struct{ path, allow string }{
		{"/v1/simulate", "POST"},
		{"/v1/compare", "POST"},
		{"/v1/sweep", "POST"},
		{"/v1/validate", "POST"},
		{"/v1/models", "GET"},
		{"/v1/trace/deadbeef00000000", "GET"},
		{"/healthz", "GET"},
		{"/metrics", "GET"},
	}
	methods := []string{"GET", "POST", "PUT", "DELETE", "PATCH"}
	for _, ep := range endpoints {
		for _, method := range methods {
			if method == ep.allow {
				continue // the allowed method is covered by the endpoint's own tests
			}
			t.Run(method+" "+ep.path, func(t *testing.T) {
				req, err := http.NewRequest(method, ts.URL+ep.path, strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Errorf("status = %d, want 405", resp.StatusCode)
				}
				if got := resp.Header.Get("Allow"); got != ep.allow {
					t.Errorf("Allow = %q, want %q", got, ep.allow)
				}
			})
		}
	}
}

// statusRecorder must forward the http.Flusher upgrade: an instrumented
// streaming handler that type-asserts its writer to http.Flusher has to
// keep flushing through the wrapper.
func TestStatusRecorderPreservesFlusher(t *testing.T) {
	rec := httptest.NewRecorder() // a Flusher
	var w http.ResponseWriter = &statusRecorder{ResponseWriter: rec, status: http.StatusOK}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not type-assert to http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Error("Flush was not forwarded to the wrapped writer")
	}
}

// A panic inside a grid cell must surface as that request's 500 while
// the daemon keeps serving — net/http's per-request recovery does not
// cover the fan-out's goroutines, so Each turns the panic into the
// cell's error.
func TestPanickingGridCellYields500NotDeadProcess(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	// A handler that runs a poisoned grid through runGrid, the fan-out
	// the sweep, compare and optimize handlers share.
	panicky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := svc.runGrid(r.Context(), 4, func(i int) (string, core.Workload) {
			if i == 2 {
				panic("poisoned cell")
			}
			return "", core.Workload{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096}
		}, func(int, *cached) error { return nil })
		if err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer panicky.Close()

	resp, err := http.Get(panicky.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking cell returned %d (%s), want 500", resp.StatusCode, body)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("500 body is not an error envelope: %s", body)
	}
	if env.Error.Code != CodeInternal || !strings.Contains(env.Error.Message, "task 2: panic: poisoned cell") {
		t.Errorf("envelope = %+v, want an internal error carrying cell 2's panic value", env.Error)
	}

	// The daemon must still be fully alive: a real grid and a real
	// simulation on the same server.
	resp2, body2 := post(t, ts.URL+"/v1/sweep", SweepRequest{
		Base: core.Workload{Model: "lenet", Batch: 16, Images: 4096}, GPUs: []int{1, 2},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sweep after a panicking cell = %d (%s); the server must survive", resp2.StatusCode, body2)
	}
	resp3, body3 := post(t, ts.URL+"/v1/simulate", core.Workload{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("simulate after a panicking cell = %d (%s); the server must survive", resp3.StatusCode, body3)
	}
}

// Concurrent identical and distinct requests against one server — the
// shared cache, pool, and metrics under -race.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wl := core.Workload{Model: "lenet", GPUs: 1 + g%2, Batch: 16, Images: 4096}
			for i := 0; i < 3; i++ {
				b, _ := json.Marshal(wl)
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSweepExpandGridOrder(t *testing.T) {
	req := SweepRequest{
		Base:    core.Workload{Batch: 16},
		Models:  []string{"a", "b"},
		GPUs:    []int{1, 2},
		Methods: []core.Method{"p2p"},
	}
	grid := expand(req)
	want := []string{"a/1", "a/2", "b/1", "b/2"}
	if len(grid) != len(want) {
		t.Fatalf("grid len %d, want %d", len(grid), len(want))
	}
	for i, w := range grid {
		if got := fmt.Sprintf("%s/%d", w.Model, w.GPUs); got != want[i] {
			t.Errorf("grid[%d] = %s, want %s (models -> gpus -> batches -> methods order)", i, got, want[i])
		}
		if w.Batch != 16 {
			t.Errorf("grid[%d] should inherit the base batch", i)
		}
	}
}
