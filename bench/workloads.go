package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
)

// target is one set-up instance of a workload, ready for ops.
type target interface {
	// op performs operation i of the seeded sequence for one client,
	// recording spans into tr when tr is non-nil.
	op(i, client int, tr *tracer) error
	// pids lists the child processes serving the workload.
	pids() []int
	// counters reads the program's own counters.
	counters() (map[string]float64, error)
	// check runs the post-measurement output checks.
	check(ck *checker)
	// layers computes the workload's per-layer metrics from the counters
	// around the traced phase and its spans.
	layers(before, after map[string]float64, ph phase, tr *tracer) (map[string]float64, error)
	close()
}

// workload is one traffic mix: why it exists is in BENCHMARK.json and
// bench/README.md.
type workload struct {
	name string
	// tail is the latency percentile reported as latency_tail_ms: the
	// highest one with ten samples beyond it at this workload's op count.
	tail float64
	// clients is the number of closed-loop clients.
	clients int
	// maxOps caps the ops one run may claim (the input space is finite).
	maxOps int
	// needsDaemons builds dgxsimd and dgxsimgw before set-up.
	needsDaemons bool
	setup        func(seed int64, e *runEnv) (target, error)
}

// runEnv is where a run builds and keeps its files.
type runEnv struct {
	root string // repository root
	bin  string // where the daemons are built
}

func workloads() []workload {
	nproc := runtime.NumCPU()
	return []workload{
		{name: "paper", tail: 0.90, clients: 1, maxOps: 1 << 30, setup: setupPaper},
		{name: "miss", tail: 0.99, clients: nproc, maxOps: spaceSize - missWarm, setup: setupMiss},
		{name: "hot", tail: 0.99, clients: nproc, maxOps: 1 << 30, setup: setupHot},
		{name: "replicas", tail: 0.99, clients: nproc, maxOps: spaceSize - replicaKeys, needsDaemons: true, setup: setupReplicas},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// ---- paper -----------------------------------------------------------

// paperTarget regenerates every paper artifact per op, from cold caches.
type paperTarget struct {
	seed   int64
	digest string // of the set-up pass; every later pass must match it
}

func setupPaper(seed int64, _ *runEnv) (target, error) {
	p := &paperTarget{seed: seed}
	d, err := paperPass(seed, nil, "", 0)
	if err != nil {
		return nil, err
	}
	p.digest = d
	return p, nil
}

// paperPass runs all experiments and returns the SHA-256 of the rendered
// tables. It fails when an insights row does not hold.
func paperPass(seed int64, tr *tracer, trace string, parent int) (string, error) {
	opt := experiments.Options{Seed: seed, Workers: runtime.NumCPU()}
	h := sha256.New()
	for _, e := range experiments.All() {
		start := time.Now()
		tables, err := e.Run(opt)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(h, "== %s\n", e.ID)
		for _, t := range tables {
			io.WriteString(h, t.String())
		}
		if tr != nil {
			tr.record(tr.id(), parent, "experiments."+e.ID, trace, 0, start, time.Now())
		}
		if e.ID == "insights" {
			for _, row := range tables[0].Rows() {
				if row[len(row)-1] != "yes" {
					return "", fmt.Errorf("insight %s does not hold: %s", row[0], row[1])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (p *paperTarget) op(i, client int, tr *tracer) error {
	core.ResetCaches()
	trace, id, start := fmt.Sprintf("paper-%d", i), 0, time.Now()
	if tr != nil {
		id = tr.id()
	}
	d, err := paperPass(p.seed, tr, trace, id)
	if tr != nil {
		tr.record(id, 0, "paper.pass", trace, client, start, time.Now())
	}
	if err != nil {
		return err
	}
	if d != p.digest {
		return fmt.Errorf("tables digest %s differs from the first pass's %s", d, p.digest)
	}
	return nil
}

func (p *paperTarget) pids() []int { return nil }

func (p *paperTarget) counters() (map[string]float64, error) {
	return map[string]float64{"dgxsimd_compile_windows_total": float64(core.CompileCount())}, nil
}

func (p *paperTarget) check(ck *checker) {
	ck.golden("paper", 0, p.digest, "the rendered tables")
}

func (p *paperTarget) layers(before, after map[string]float64, ph phase, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{
		"core.compiles_per_op": delta(before, after, "dgxsimd_compile_windows_total") / float64(ph.ops),
	}
	for _, e := range experiments.All() {
		m["experiments."+e.ID+"_ms"] = 1e3 * median(tr.durations("experiments."+e.ID))
	}
	return m, nil
}

func (p *paperTarget) close() {}

// ---- service workloads -----------------------------------------------

const (
	missWarm    = 256 // throwaway misses in miss's set-up
	hotKeys     = 512 // hot's key set; fits the default 1,024-entry cache
	replicaKeys = 768 // replicas' read set: overflows one 256-entry cache, fits three
	checkKeys   = 64  // keys whose bodies are checked against core.Run
	traceEvery  = 8   // the traced run fetches the server trace of 1 op in 8
)

// hotZipf and replicaZipf skew reads towards a few popular keys, as
// repeated what-if questions are.
var (
	hotZipf     = newZipf(hotKeys, 1.1)
	replicaZipf = newZipf(replicaKeys, 1.1)
)

// serviceTarget drives dgxsimd over HTTP, in process (miss, hot) or
// through the gateway (replicas).
type serviceTarget struct {
	name   string
	in     *inputs
	next   func(i int) request
	check0 int // permutation position of the first checked key
	base   string
	client *http.Client

	mu     sync.Mutex
	bodies map[int][32]byte // SHA-256 of the first 200 body per key

	srv   *service.Server  // in process
	ts    *httptest.Server // in process
	fleet *fleet           // replicas
}

func newServiceTarget(name string, seed int64) *serviceTarget {
	return &serviceTarget{
		name: name, in: newInputs(seed, name),
		bodies: map[int][32]byte{},
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU() + 2, DisableCompression: true},
		},
	}
}

// inProcess serves the service from an httptest server in this process,
// with one pool worker per CPU, as dgxsimd runs by default.
func (s *serviceTarget) inProcess() {
	s.srv = service.NewServer(service.Config{Workers: runtime.NumCPU()})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.base = s.ts.URL
}

func setupMiss(seed int64, _ *runEnv) (target, error) {
	s := newServiceTarget("miss", seed)
	s.next = func(i int) request { return simulateRequest(s.in, missWarm+i) }
	s.check0 = missWarm
	s.inProcess()
	return s, s.warm(missWarm)
}

func setupHot(seed int64, _ *runEnv) (target, error) {
	s := newServiceTarget("hot", seed)
	s.next = func(i int) request { return simulateRequest(s.in, hotZipf.rank(unit(seed, i, saltZipf))) }
	s.inProcess()
	return s, s.warm(hotKeys)
}

// warm sends the simulate bodies at positions [0, n) with one client per
// CPU. On failure it closes the target.
func (s *serviceTarget) warm(n int) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	keys := make(chan int)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if _, err := s.roundTrip(simulateRequest(s.in, k), ""); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("warm-up key %d: %w", k, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for k := 0; k < n; k++ {
		keys <- k
	}
	close(keys)
	wg.Wait()
	if first != nil {
		s.close()
	}
	return first
}

// sendTo posts one request to base and returns the response of a 200.
func (s *serviceTarget) sendTo(base string, req request, id string) (*http.Response, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.ndjson {
		hr.Header.Set("Accept", "application/x-ndjson")
	}
	if id != "" {
		hr.Header.Set("X-Request-ID", id)
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp, body, nil
}

// roundTrip sends a request and checks its body; it returns the response.
func (s *serviceTarget) roundTrip(req request, id string) (*http.Response, error) {
	resp, body, err := s.sendTo(s.base, req, id)
	if err != nil {
		return nil, err
	}
	return resp, s.verify(req, body)
}

// verify checks one response body: a simulate body must be byte-identical
// to every earlier body for the same key, whether it was a miss, a hit or
// served after a restart; a sweep must carry one record per grid cell.
func (s *serviceTarget) verify(req request, body []byte) error {
	if req.cells > 0 {
		return verifySweep(req, body)
	}
	sum := sha256.Sum256(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.bodies[req.key]; ok && prev != sum {
		return fmt.Errorf("body for %s differs from its first response", req.body)
	} else if !ok {
		s.bodies[req.key] = sum
	}
	return nil
}

func verifySweep(req request, body []byte) error {
	var count, records int
	if req.ndjson {
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var rec struct {
				Workload *json.RawMessage `json:"workload"`
				Summary  *struct {
					Count int `json:"count"`
				} `json:"summary"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("sweep record: %w", err)
			}
			switch {
			case rec.Workload != nil:
				records++
			case rec.Summary != nil:
				count = rec.Summary.Count
			default:
				return fmt.Errorf("sweep stream carried an error record: %s", line)
			}
		}
	} else {
		var sr service.SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("sweep body: %w", err)
		}
		count, records = sr.Count, len(sr.Results)
	}
	if count != req.cells || records != req.cells {
		return fmt.Errorf("sweep returned %d records (count %d) for a %d-cell grid", records, count, req.cells)
	}
	return nil
}

func (s *serviceTarget) op(i, client int, tr *tracer) error {
	req := s.next(i)
	if tr == nil || i%traceEvery != 0 {
		_, err := s.roundTrip(req, "")
		return err
	}
	trace := fmt.Sprintf("%s-%d", s.name, i)
	start := time.Now()
	resp, err := s.roundTrip(req, trace)
	finish := time.Now()
	if err != nil {
		return err
	}
	id := tr.id()
	tr.record(id, 0, "http "+req.path, trace, client, start, finish)
	body, err := s.serverTrace(s.traceBase(resp), trace)
	if err != nil {
		return err
	}
	return tr.fold(body, trace, id, client, start)
}

// traceBase is the dgxsimd that served a response and holds its trace.
func (s *serviceTarget) traceBase(resp *http.Response) string {
	if r := resp.Header.Get("X-Gw-Replica"); r != "" {
		return r
	}
	return s.base
}

// serverTrace fetches GET /v1/trace/{id}. The server stores a trace just
// after the handler returns, which can be after the client has read the
// whole body, so a 404 is retried briefly.
func (s *serviceTarget) serverTrace(base, id string) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		resp, err := s.client.Get(base + "/v1/trace/" + id)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return body, nil
		}
		if resp.StatusCode != http.StatusNotFound || attempt == 50 {
			return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *serviceTarget) pids() []int {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.pids()
}

func (s *serviceTarget) counters() (map[string]float64, error) {
	if s.fleet != nil {
		return s.fleet.counters(s.client)
	}
	return scrape(s.client, s.base+"/metrics", nil)
}

// check re-requests each checked key twice — a hit at the latest by the
// second time — and holds its bytes to the first response and its
// numbers to a direct core.Run in this process.
func (s *serviceTarget) check(ck *checker) {
	core.ResetCaches()
	for k := s.check0; k < s.check0+checkKeys; k++ {
		req := simulateRequest(s.in, k)
		var body []byte
		for rep := 0; rep < 2; rep++ {
			_, b, err := s.sendTo(s.base, req, "")
			if !ck.expect(err == nil, "%s: check request %s: %v", s.name, req.body, err) {
				break
			}
			ck.expect(s.verify(req, b) == nil, "%s: body for %s is not byte-identical across responses", s.name, req.body)
			body = b
		}
		if body == nil {
			continue
		}
		ck.expect(agreesWithCore(s.in.workload(k), body), "%s: %s does not match core.Run", s.name, req.body)
		sum := sha256.Sum256(body)
		if !ck.golden(s.name, k-s.check0, hex.EncodeToString(sum[:8]), string(req.body)) {
			break
		}
	}
}

// agreesWithCore decodes the numbers a report body carries and compares
// them with a direct simulation.
func agreesWithCore(w core.Workload, body []byte) bool {
	var got struct {
		Epoch      int64   `json:"epochTimeNs"`
		Iterations int64   `json:"iterations"`
		Throughput float64 `json:"imagesPerSecond"`
	}
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	r, err := core.Run(w)
	return err == nil && int64(r.EpochTime) == got.Epoch && r.Iterations == got.Iterations && r.Throughput == got.Throughput
}

func (s *serviceTarget) layers(before, after map[string]float64, ph phase, tr *tracer) (map[string]float64, error) {
	ops := float64(ph.ops)
	d := func(series string) float64 { return delta(before, after, series) }
	us := func(name string) float64 { return 1e6 * median(tr.durations("dgxsimd."+name)) }
	hits, misses := d("dgxsimd_cache_hits_total"), d("dgxsimd_cache_misses_total")
	queue := sortedCopy(tr.durations("dgxsimd.queue-wait"))
	m := map[string]float64{
		"core.compiles_per_op":      d("dgxsimd_compile_windows_total") / ops,
		"service.decode_us":         us("decode"),
		"service.cache_lookup_us":   us("cache-lookup"),
		"service.queue_wait_p50_us": 1e6 * median(queue),
		"service.simulate_ms":       us("simulate") / 1e3,
		"service.serialize_us":      us("serialize"),
		"service.encode_us":         us("encode"),
		"service.http_self_us":      1e6 * median(append(tr.selfTimes("http /v1/simulate"), tr.selfTimes("http /v1/sweep")...)),
		"service.hit_ratio":         hits / max(hits+misses, 1),
		"service.evictions_per_op":  d("dgxsimd_cache_evictions_total") / ops,
		"service.coalesced_per_op":  d("dgxsimd_coalesced_total") / ops,
		"service.shed_per_op":       d("dgxsimd_shed_total") / ops,
	}
	// 0 when too few queue waits were sampled to support a p90.
	m["service.queue_wait_p90_us"] = 0
	if v, err := quantile(queue, 0.9); err == nil {
		m["service.queue_wait_p90_us"] = 1e6 * v
	}
	if s.fleet != nil {
		if err := s.fleet.layers(m, before, after, ops, s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (s *serviceTarget) close() {
	if s.ts != nil {
		s.ts.Close()
		s.srv.Close()
	}
	if s.fleet != nil {
		s.fleet.close()
	}
	s.client.CloseIdleConnections()
}

// delta is the change of a counter between two scrapes.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
