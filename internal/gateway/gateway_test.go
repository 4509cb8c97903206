package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// backend is a scriptable fake replica: healthy by default, counts the
// proxied requests it receives, and can be told to shed or misbehave.
type backend struct {
	ts   *httptest.Server
	hits atomic.Int64
	// handle serves non-/healthz requests; swap it to script behaviour.
	handle atomic.Value // func(http.ResponseWriter, *http.Request)
}

func newBackend(t *testing.T) *backend {
	t.Helper()
	b := &backend{}
	b.handle.Store(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"echo":%q}`, string(body))
	})
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		b.hits.Add(1)
		b.handle.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func (b *backend) set(h func(http.ResponseWriter, *http.Request)) { b.handle.Store(h) }

func newGateway(t *testing.T, backends ...*backend) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	g, err := New(Config{Replicas: urls, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(raw)
}

// TestAffinitySameWorkloadSameReplica: repeats of one workload all land
// on one replica — that is the whole point of the gateway.
func TestAffinitySameWorkloadSameReplica(t *testing.T) {
	b1, b2, b3 := newBackend(t), newBackend(t), newBackend(t)
	_, ts := newGateway(t, b1, b2, b3)

	var served string
	for i := 0; i < 12; i++ {
		resp, _ := post(t, ts.URL+"/v1/simulate", `{"Model":"resnet","GPUs":4,"Batch":32}`)
		rep := resp.Header.Get("X-Gw-Replica")
		if rep == "" {
			t.Fatal("response missing X-Gw-Replica")
		}
		if served == "" {
			served = rep
		} else if rep != served {
			t.Fatalf("request %d routed to %s, earlier ones to %s — affinity broken", i, rep, served)
		}
	}
	total := b1.hits.Load() + b2.hits.Load() + b3.hits.Load()
	if total != 12 {
		t.Fatalf("backends saw %d requests, want 12", total)
	}
	for _, b := range []*backend{b1, b2, b3} {
		if n := b.hits.Load(); n != 0 && n != 12 {
			t.Fatalf("requests split across replicas: %d/%d/%d", b1.hits.Load(), b2.hits.Load(), b3.hits.Load())
		}
	}
}

// TestAffinityNormalizedEquivalence: a workload with defaults spelled
// out routes to the same replica as one that omits them — the gateway
// fingerprints the normalized workload, exactly as the replica cache
// keys it.
func TestAffinityNormalizedEquivalence(t *testing.T) {
	b1, b2, b3 := newBackend(t), newBackend(t), newBackend(t)
	_, ts := newGateway(t, b1, b2, b3)

	terse := `{"Model":"lenet","GPUs":2,"Batch":16}`
	spelled := `{"Model":"lenet","GPUs":2,"Batch":16,"Method":"nccl","Images":262144}`
	r1, _ := post(t, ts.URL+"/v1/simulate", terse)
	r2, _ := post(t, ts.URL+"/v1/simulate", spelled)
	if a, b := r1.Header.Get("X-Gw-Replica"), r2.Header.Get("X-Gw-Replica"); a != b {
		t.Fatalf("normalization-equivalent bodies routed apart: %s vs %s", a, b)
	}
}

// TestSweepRoutesByBaseWorkload: a sweep grid routes by its base
// workload, so the whole grid shares one replica's compile cache.
func TestSweepRoutesByBaseWorkload(t *testing.T) {
	b1, b2, b3 := newBackend(t), newBackend(t), newBackend(t)
	_, ts := newGateway(t, b1, b2, b3)

	r1, _ := post(t, ts.URL+"/v1/sweep", `{"Base":{"Model":"vgg","Batch":32},"GPUs":[1,2,4]}`)
	r2, _ := post(t, ts.URL+"/v1/sweep", `{"Base":{"Model":"vgg","Batch":32},"GPUs":[8]}`)
	if a, b := r1.Header.Get("X-Gw-Replica"), r2.Header.Get("X-Gw-Replica"); a != b {
		t.Fatalf("same-base sweeps routed apart: %s vs %s", a, b)
	}
}

// TestShedFailover: the affinity owner sheds (429 + Retry-After), the
// next ring member serves, and the gateway counts the failover.
func TestShedFailover(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	g, ts := newGateway(t, b1, b2)

	body := `{"Model":"resnet","GPUs":8,"Batch":64}`
	// Find the owner, then make it shed.
	resp, _ := post(t, ts.URL+"/v1/simulate", body)
	owner := resp.Header.Get("X-Gw-Replica")
	var ob, other *backend
	if owner == b1.ts.URL {
		ob, other = b1, b2
	} else {
		ob, other = b2, b1
	}
	ob.set(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeEnvelope(w, http.StatusTooManyRequests, service.ErrorDetail{
			Code: "overloaded", Message: "queue full", Retryable: true,
		})
	})

	resp2, got := post(t, ts.URL+"/v1/simulate", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("failover response: %d %s", resp2.StatusCode, got)
	}
	if rep := resp2.Header.Get("X-Gw-Replica"); rep != other.ts.URL {
		t.Fatalf("served by %s, want failover target %s", rep, other.ts.URL)
	}
	if g.failovers.Load() != 1 {
		t.Fatalf("failovers = %d, want 1", g.failovers.Load())
	}
}

// TestAllShedPassThrough: when every candidate sheds, the last shed
// response passes through verbatim — the client sees the replica's own
// overload envelope and Retry-After, not a gateway invention.
func TestAllShedPassThrough(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	_, ts := newGateway(t, b1, b2)
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		writeEnvelope(w, http.StatusTooManyRequests, service.ErrorDetail{
			Code: "overloaded", Message: "queue full", Retryable: true,
		})
	}
	b1.set(shed)
	b2.set(shed)

	resp, body := post(t, ts.URL+"/v1/simulate", `{"Model":"lenet","GPUs":1,"Batch":16}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the replica's own %q", ra, "7")
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "overloaded" {
		t.Fatalf("body not the replica envelope: %s", body)
	}
	if total := b1.hits.Load() + b2.hits.Load(); total != 2 {
		t.Fatalf("attempts = %d, want exactly 2 (owner + one failover)", total)
	}
}

// TestNonShedPassesThroughVerbatim: a 503 without Retry-After is not a
// dgxsimd shed; it must pass through without a failover attempt.
func TestNonShedPassesThroughVerbatim(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	g, ts := newGateway(t, b1, b2)
	boom := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "crashed mid-handler", http.StatusServiceUnavailable)
	}
	b1.set(boom)
	b2.set(boom)

	resp, body := post(t, ts.URL+"/v1/simulate", `{"Model":"alexnet","GPUs":2,"Batch":32}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "crashed mid-handler") {
		t.Fatalf("body rewritten: %q", body)
	}
	if total := b1.hits.Load() + b2.hits.Load(); total != 1 {
		t.Fatalf("attempts = %d, want 1 (no failover on a non-shed 503)", total)
	}
	if g.failovers.Load() != 0 {
		t.Fatalf("failovers = %d, want 0", g.failovers.Load())
	}
}

// TestErrorEnvelopePassThrough: a replica 400 envelope reaches the
// client byte-for-byte — the gateway adds routing, never reinterprets.
func TestErrorEnvelopePassThrough(t *testing.T) {
	b1 := newBackend(t)
	b1.set(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":{"code":"bad_workload","message":"unknown model","retryable":false}}`)
	})
	_, ts := newGateway(t, b1)

	resp, body := post(t, ts.URL+"/v1/simulate", `{"Model":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "bad_workload" {
		t.Fatalf("envelope mangled: %s", body)
	}
}

// TestOutOfMemoryPassesThrough: a replica's 422 out_of_memory (a workload
// past the memory wall) is the client's answer, not a shed, so the
// gateway relays it unchanged without trying another replica.
func TestOutOfMemoryPassesThrough(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	for _, b := range []*backend{b1, b2} {
		svc := service.NewServer(service.Config{Workers: 1})
		t.Cleanup(svc.Close)
		b.set(svc.Handler().ServeHTTP)
	}
	g, ts := newGateway(t, b1, b2)

	resp, body := post(t, ts.URL+"/v1/simulate", `{"Model":"googlenet","GPUs":1,"Batch":512}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != service.CodeOutOfMemory || env.Error.Retryable {
		t.Fatalf("envelope = %s, want out_of_memory, not retryable", body)
	}
	if total := b1.hits.Load() + b2.hits.Load(); total != 1 {
		t.Fatalf("attempts = %d, want 1 (no failover on a 422)", total)
	}
	if g.failovers.Load() != 0 {
		t.Fatalf("failovers = %d, want 0", g.failovers.Load())
	}
}

// TestTransportFailover: a dead owner fails over to the next ring
// member, and the gateway marks it down immediately rather than waiting
// for the next probe.
func TestTransportFailover(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	g, ts := newGateway(t, b1, b2)

	body := `{"Model":"googlenet","GPUs":4,"Batch":16}`
	resp, _ := post(t, ts.URL+"/v1/simulate", body)
	owner := resp.Header.Get("X-Gw-Replica")
	var ownerBackend, survivor *backend
	if owner == b1.ts.URL {
		ownerBackend, survivor = b1, b2
	} else {
		ownerBackend, survivor = b2, b1
	}
	ownerBackend.ts.Close()

	resp2, got := post(t, ts.URL+"/v1/simulate", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("failover response: %d %s", resp2.StatusCode, got)
	}
	if rep := resp2.Header.Get("X-Gw-Replica"); rep != survivor.ts.URL {
		t.Fatalf("served by %s, want survivor %s", rep, survivor.ts.URL)
	}
	for _, rep := range g.replicas {
		if rep.name == owner && rep.up.Load() {
			t.Fatal("dead replica still marked up after a transport failure")
		}
	}
}

// TestNDJSONStreamPassThrough: an NDJSON stream flows through the
// gateway record-for-record, content type intact.
func TestNDJSONStreamPassThrough(t *testing.T) {
	b1 := newBackend(t)
	b1.set(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Accept"); got != "application/x-ndjson" {
			t.Errorf("Accept not forwarded: %q", got)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		f, _ := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, `{"cell":%d}`+"\n", i)
			if f != nil {
				f.Flush()
			}
		}
		io.WriteString(w, `{"summary":{"cells":3}}`+"\n")
	})
	_, ts := newGateway(t, b1)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(`{"Base":{"Model":"lenet","Batch":16},"GPUs":[1,2,4]}`))
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 4: %v", len(lines), lines)
	}
	if !strings.Contains(lines[3], "summary") {
		t.Fatalf("last line is not the summary: %q", lines[3])
	}
}

// TestBodyTooLargeRefusedAtEdge: an oversized body is refused by the
// gateway with the service's own 413 envelope, never forwarded.
func TestBodyTooLargeRefusedAtEdge(t *testing.T) {
	b1 := newBackend(t)
	_, ts := newGateway(t, b1)

	maxBody, _ := service.Contract("/v1/simulate")
	resp, body := post(t, ts.URL+"/v1/simulate", strings.Repeat("x", int(maxBody)+1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != service.CodeBodyTooLarge {
		t.Fatalf("413 envelope wrong: %s", body)
	}
	if b1.hits.Load() != 0 {
		t.Fatal("oversized body was forwarded to a replica")
	}
}

// TestLargeClusterSpecForwarded: each path gets its replica's own body
// cap. An explicit fleet trace past the workload endpoints' 1 MiB is a
// legitimate /v1/cluster/simulate body, so the gateway forwards it
// rather than refusing at the edge what the replica would serve.
func TestLargeClusterSpecForwarded(t *testing.T) {
	b1 := newBackend(t)
	_, ts := newGateway(t, b1)

	job := `{"model":"lenet","gpus":1,"batch":16,"images":4096,"arrivalNs":0}`
	jobs := strings.Repeat(job+",", (2<<20)/len(job))
	body := `{"nodes":[{"count":2}],"jobs":[` + jobs + job + `]}`
	var spec cluster.Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("test spec invalid: %v", err)
	}

	resp, _ := post(t, ts.URL+"/v1/cluster/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for a %d-byte cluster spec, want it forwarded", resp.StatusCode, len(body))
	}
	if b1.hits.Load() != 1 {
		t.Fatalf("replica saw %d requests, want 1", b1.hits.Load())
	}
}

// TestAllReplicasDead: every replica unreachable yields the gateway's
// 502 no_replica envelope with Retry-After, and /healthz goes 503.
func TestAllReplicasDead(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	g, ts := newGateway(t, b1, b2)
	b1.ts.Close()
	b2.ts.Close()

	resp, body := post(t, ts.URL+"/v1/simulate", `{"Model":"lenet","GPUs":1,"Batch":16}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != CodeNoReplica || !env.Error.Retryable {
		t.Fatalf("502 envelope wrong: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("502 missing Retry-After")
	}
	if g.noReplica.Load() != 1 {
		t.Fatalf("noReplica = %d, want 1", g.noReplica.Load())
	}

	hresp, hbody := get(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after fleet death, want 503: %s", hresp.StatusCode, hbody)
	}
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, string(raw)
}

// TestGatewayHealthzAndMetrics: the gateway's own endpoints are served
// locally, not proxied, answer anything but GET with the replica's 405
// envelope, and /metrics carries the per-replica counters and the body
// memo's: the repeated body is routed by a memo hit.
func TestGatewayHealthzAndMetrics(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	_, ts := newGateway(t, b1, b2)

	hresp, hbody := get(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK || !strings.Contains(hbody, "ok") {
		t.Fatalf("/healthz = %d %q", hresp.StatusCode, hbody)
	}

	for i := 0; i < 2; i++ {
		post(t, ts.URL+"/v1/simulate", `{"Model":"resnet","GPUs":4,"Batch":32}`)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("dgxsimgw_replica_up{replica=%q} 1", b1.ts.URL),
		fmt.Sprintf("dgxsimgw_replica_up{replica=%q} 1", b2.ts.URL),
		"dgxsimgw_replica_requests_total",
		"dgxsimgw_replica_sheds_total",
		"dgxsimgw_replica_transport_errors_total",
		"dgxsimgw_failovers_total 0",
		"dgxsimgw_no_replica_total 0",
		"dgxsimgw_decode_memo_misses_total",
		"dgxsimgw_decode_memo_evictions_total",
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mbody)
		}
	}
	if !strings.Contains(mbody, "requests_total") {
		t.Fatalf("metrics missing request counters:\n%s", mbody)
	}
	if !regexp.MustCompile(`(?m)^dgxsimgw_decode_memo_hits_total [1-9]`).MatchString(mbody) {
		t.Fatalf("the repeated body was not a body-memo hit:\n%s", mbody)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, body := post(t, ts.URL+path, "")
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
			t.Fatalf("POST %s = %d Allow=%q, want 405 Allow=GET", path, resp.StatusCode, resp.Header.Get("Allow"))
		}
		var env service.ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != service.CodeMethodNotAllowed {
			t.Fatalf("POST %s body = %q, want a %s envelope", path, body, service.CodeMethodNotAllowed)
		}
	}
	// The replicas served the two requests and nothing else.
	if b1.hits.Load()+b2.hits.Load() != 2 {
		t.Fatalf("proxied hits = %d, want 2 (gateway endpoints must not proxy)", b1.hits.Load()+b2.hits.Load())
	}
}

// TestNewRejectsDuplicateReplicas: a replica listed twice (trailing
// slash aside) is a configuration error, not a second ring member.
func TestNewRejectsDuplicateReplicas(t *testing.T) {
	if _, err := New(Config{Replicas: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Fatal("New accepted a duplicate replica")
	}
}

// TestReplicaRecovery: a replica that was down and comes back is marked
// up by the probe loop and regains its keys.
func TestReplicaRecovery(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	g, ts := newGateway(t, b1, b2)

	body := `{"Model":"inception","GPUs":8,"Batch":32}`
	resp, _ := post(t, ts.URL+"/v1/simulate", body)
	owner := resp.Header.Get("X-Gw-Replica")

	// Mark the owner down by hand (as a transport failure would).
	for _, rep := range g.replicas {
		if rep.name == owner {
			rep.up.Store(false)
		}
	}
	resp2, _ := post(t, ts.URL+"/v1/simulate", body)
	if rep := resp2.Header.Get("X-Gw-Replica"); rep == owner {
		t.Fatalf("request routed to a down replica %s", rep)
	}

	// The probe loop should observe it healthy again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		up := false
		for _, rep := range g.replicas {
			if rep.name == owner && rep.up.Load() {
				up = true
			}
		}
		if up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe loop never re-marked the recovered replica up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp3, _ := post(t, ts.URL+"/v1/simulate", body)
	if rep := resp3.Header.Get("X-Gw-Replica"); rep != owner {
		t.Fatalf("recovered replica did not regain its key: %s, want %s", rep, owner)
	}
}
