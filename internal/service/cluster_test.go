package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinyClusterBody is the 2-node/5-job spec the endpoint tests (and the
// smoke script) post.
const tinyClusterBody = `{
  "nodes": [{"count": 2}],
  "jobs": [
    {"model": "lenet", "gpus": 1, "batch": 16, "images": 4096, "arrivalNs": 0},
    {"model": "lenet", "gpus": 1, "batch": 16, "images": 4096, "arrivalNs": 0},
    {"model": "lenet", "gpus": 4, "batch": 16, "images": 4096, "arrivalNs": 1000000000},
    {"model": "lenet", "gpus": 8, "batch": 16, "images": 4096, "arrivalNs": 2000000000},
    {"model": "lenet", "gpus": 1, "batch": 16, "images": 4096, "arrivalNs": 2000000000, "repeats": 3}
  ]
}`

func TestClusterSimulateEndpoint(t *testing.T) {
	s := NewServer(Config{Workers: 2, Timeout: time.Minute})
	defer s.Close()

	req := httptest.NewRequest("POST", "/v1/cluster/simulate", strings.NewReader(tinyClusterBody))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID")
	}
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", got)
	}
	var resp ClusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.SchemaVersion != SchemaVersion {
		t.Errorf("schemaVersion = %d", resp.SchemaVersion)
	}
	r := resp.Result
	if r == nil || r.Jobs != 5 || r.Nodes != 2 {
		t.Fatalf("result echo wrong: %+v", r)
	}
	if r.JCT.Mean <= 0 || r.Makespan <= 0 {
		t.Errorf("degenerate stats: %+v", r)
	}
	if r.Policy != "first-fit" || r.Queue != "fifo" {
		t.Errorf("defaults not echoed: policy=%q queue=%q", r.Policy, r.Queue)
	}

	// The same spec must return byte-identical bodies across requests —
	// the endpoint inherits the simulator's determinism.
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/cluster/simulate", strings.NewReader(tinyClusterBody)))
	if rec2.Code != 200 || rec2.Body.String() != rec.Body.String() {
		t.Errorf("repeat request differed (status %d)", rec2.Code)
	}

	// The cluster counters must be on /metrics.
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := mrec.Body.String()
	if !strings.Contains(metrics, "dgxsimd_cluster_jobs_total 10") {
		t.Errorf("cluster jobs counter missing or wrong (want 10 across both runs):\n%s", metrics)
	}
	if !strings.Contains(metrics, "dgxsimd_cluster_sim_seconds_count 2") {
		t.Errorf("cluster sim histogram count missing:\n%s", metrics)
	}
	if !strings.Contains(metrics, `dgxsimd_requests_total{path="/v1/cluster/simulate"} 2`) {
		t.Errorf("per-endpoint counter missing for the cluster path:\n%s", metrics)
	}
}

func TestClusterSimulateRejects(t *testing.T) {
	s := NewServer(Config{Workers: 1, Timeout: time.Minute})
	defer s.Close()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/simulate", strings.NewReader(body)))
		return rec
	}

	if rec := post(`{"schemaVersion": 99, "nodes": [{}], "mix": {"jobs": 1}}`); rec.Code != 400 {
		t.Errorf("foreign schemaVersion: status %d", rec.Code)
	}
	if rec := post(`{"nodes": [], "mix": {"jobs": 1}}`); rec.Code != 400 {
		t.Errorf("empty fleet: status %d", rec.Code)
	}
	if rec := post(`{"nodes": [{}], "mix": {"jobs": 1}, "policy": "tetris"}`); rec.Code != 400 {
		t.Errorf("unknown policy: status %d", rec.Code)
	}
	if rec := post(`{"nodes": [{}], "mix": {"jobs": 1}, "bogus": true}`); rec.Code != 400 {
		t.Errorf("unknown field: status %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cluster/simulate", nil))
	if rec.Code != 405 || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET: status %d Allow %q, want 405 POST", rec.Code, rec.Header().Get("Allow"))
	}
}

// A full admission queue sheds a cluster request with 429 + Retry-After
// before any pricing work starts — the endpoint inherits the pool's
// overload semantics.
func TestClusterSimulateShedsWhenQueueFull(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 1, Timeout: time.Minute})
	defer s.Close()

	// Occupy the one worker and the one queue slot with blocking tasks.
	block := make(chan struct{})
	started := make(chan struct{})
	s.pool.SubmitContext(context.Background(), func() { close(started); <-block })
	<-started
	s.pool.SubmitContext(context.Background(), func() { <-block })

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/simulate", strings.NewReader(tinyClusterBody)))
	close(block)
	if rec.Code != 429 {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
}
