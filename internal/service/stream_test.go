package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// streamSweepRequest POSTs a sweep with the NDJSON Accept header and
// returns the raw response (caller closes the body).
func streamSweepRequest(t *testing.T, url string, req SweepRequest) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes an NDJSON sweep response: the cell records and
// the trailing summary.
func readStream(t *testing.T, resp *http.Response) (cells [][]byte, summary SweepSummary) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines [][]byte
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if !bytes.Contains(last, []byte(`"summary"`)) {
		t.Fatalf("stream does not end with a summary record: %s", last)
	}
	if err := json.Unmarshal(last, &summary); err != nil {
		t.Fatal(err)
	}
	return lines[:len(lines)-1], summary
}

func TestWantsNDJSON(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{"application/x-ndjson", true},
		{"application/json, application/x-ndjson;q=0.9", true},
		{" application/x-ndjson ; q=1", true},
		{"application/json", false},
		{"*/*", false},
		{"", false},
		// RFC 9110 §12.4.2: q=0 means "not acceptable" — the client is
		// explicitly declining the streamed representation.
		{"application/x-ndjson;q=0", false},
		{"application/x-ndjson; q=0", false},
		{"application/x-ndjson;q=0.000", false},
		{"application/x-ndjson;Q=0", false},
		{"application/json;q=0.5, application/x-ndjson;q=0", false},
		// A zero-weighted member does not veto a positive one elsewhere.
		{"application/x-ndjson;q=0, application/x-ndjson;q=0.1", true},
		{"application/x-ndjson;q=0.001", true},
		// Other parameters are not q; malformed or out-of-range q falls
		// back lenient (weight 1), like the rest of the header's parsing.
		{"application/x-ndjson;charset=utf-8", true},
		{"application/x-ndjson;q=banana", true},
		{"application/x-ndjson;q=7", true},
		{"application/x-ndjson;q=", true},
	} {
		r, _ := http.NewRequest(http.MethodPost, "/v1/sweep", nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		if got := wantsNDJSON(r); got != tc.want {
			t.Errorf("wantsNDJSON(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

func TestStreamWindowSize(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{1, 4}, {2, 4}, {4, 8}, {16, 32}, {64, 64}, {1000, 64},
	} {
		if got := streamWindowSize(tc.workers); got != tc.want {
			t.Errorf("streamWindowSize(%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
}

// TestSweepStreamMatchesBuffered is the mode-equivalence acceptance
// test: the streamed records must be byte-identical to the buffered
// response's results array, in grid order, with the trailing summary
// accounting for every cell.
func TestSweepStreamMatchesBuffered(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Cold streamed run.
	resp := streamSweepRequest(t, ts.URL, sweep16)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	cells, summary := readStream(t, resp)
	if len(cells) != 16 {
		t.Fatalf("streamed %d cell records, want 16", len(cells))
	}
	if summary.SchemaVersion != SchemaVersion {
		t.Errorf("summary schemaVersion = %d", summary.SchemaVersion)
	}
	if summary.Summary.Count != 16 {
		t.Errorf("summary count = %d, want 16", summary.Summary.Count)
	}
	if summary.Summary.WallNs <= 0 {
		t.Errorf("summary wallNs = %d, want > 0", summary.Summary.WallNs)
	}

	// Buffered run on the same server: identical bytes per cell, grid
	// order (the cache guarantees the reports are the same objects).
	resp2, body := post(t, ts.URL+"/v1/sweep", sweep16)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("buffered status = %d: %s", resp2.StatusCode, body)
	}
	var buffered SweepResponse
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}
	if buffered.Count != 16 || len(buffered.Results) != 16 {
		t.Fatalf("buffered count = %d, results = %d", buffered.Count, len(buffered.Results))
	}
	for i := range cells {
		if !bytes.Equal(cells[i], []byte(buffered.Results[i])) {
			t.Fatalf("cell %d differs between modes:\nstream:   %s\nbuffered: %s",
				i, cells[i], buffered.Results[i])
		}
	}

	// A second streamed run is served from cache — the summary says so.
	resp3 := streamSweepRequest(t, ts.URL, sweep16)
	cells3, summary3 := readStream(t, resp3)
	if summary3.Summary.CacheHits != 16 {
		t.Errorf("warm stream cacheHits = %d, want 16", summary3.Summary.CacheHits)
	}
	for i := range cells {
		if !bytes.Equal(cells[i], cells3[i]) {
			t.Fatalf("cell %d differs between cold and warm streams", i)
		}
	}
}

// A buffered sweep's count is its grid size and the number of results
// it carries.
func TestSweepResponseCountMatchesGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/sweep", sweep16)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if size := sweep16.Size(); sr.Count != size || len(sr.Results) != size {
		t.Fatalf("count = %d, results = %d, want grid size %d", sr.Count, len(sr.Results), size)
	}
}

// The Images axis varies the extrapolation phase only; it nests
// innermost so consecutive cells share a compiled window.
func TestSweepImagesAxis(t *testing.T) {
	req := SweepRequest{
		Base:   core.Workload{Model: "lenet", Batch: 16},
		GPUs:   []int{1, 2},
		Images: []int64{1000, 2000},
	}
	if req.Size() != 4 {
		t.Fatalf("Size = %d, want 4", req.Size())
	}
	grid := expand(req)
	want := []struct {
		gpus   int
		images int64
	}{{1, 1000}, {1, 2000}, {2, 1000}, {2, 2000}}
	for i, w := range want {
		if grid[i].GPUs != w.gpus || grid[i].Images != w.images {
			t.Fatalf("cell %d = gpus %d images %d, want %d/%d",
				i, grid[i].GPUs, grid[i].Images, w.gpus, w.images)
		}
	}
}

// TestStreamCompileEconomy is the tentpole acceptance test: a large
// grid varying only the iteration count (the Images axis) streams over
// NDJSON while compiling exactly ONE train.Window — every cell shares
// the one compile-phase plan and differs only in extrapolation.
func TestStreamCompileEconomy(t *testing.T) {
	const cells = 10_000
	// Batch 19 is deliberately odd so no other test has this plan in the
	// process-wide artifact cache.
	req := SweepRequest{
		Base:   core.Workload{Model: "lenet", GPUs: 1, Batch: 19},
		Images: make([]int64, cells),
	}
	for i := range req.Images {
		// All >= 4 simulated iterations (batch 19 → window caps at 4), so
		// every cell shares the same compile-phase artifact key.
		req.Images[i] = 4096 + int64(i)*19
	}
	_, ts := newTestServer(t, Config{Timeout: 120 * time.Second})

	// A repeated run (-count>1) would otherwise find the window cached.
	core.ResetCaches()
	before := core.CompileCount()
	resp := streamSweepRequest(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got, summary := readStream(t, resp)
	compiled := core.CompileCount() - before

	if len(got) != cells {
		t.Fatalf("streamed %d records, want %d", len(got), cells)
	}
	if summary.Summary.Count != cells {
		t.Fatalf("summary count = %d, want %d", summary.Summary.Count, cells)
	}
	if compiled != 1 {
		t.Fatalf("grid varying only Images compiled %d windows, want exactly 1", compiled)
	}
	// Spot-check record shape and distinctness: different Images must
	// produce different cells.
	if bytes.Equal(got[0], got[cells-1]) {
		t.Fatal("first and last cells identical; Images axis not applied")
	}
}

// TestSweepGoroutinesBoundedByK pins the fan-out's goroutine bound in
// both sweep modes: a 10,000-cell grid, buffered and streamed, never
// runs more than the fan-out's k goroutines (workers plus queue slots
// buffered, the window streamed) plus a constant for the HTTP plumbing,
// however large the grid.
func TestSweepGoroutinesBoundedByK(t *testing.T) {
	const (
		cells   = 10_000
		workers = 2
		slack   = 16 // server and client connection goroutines, the sampler
	)
	req := SweepRequest{
		Base:   core.Workload{Model: "lenet", GPUs: 1, Batch: 23},
		Images: make([]int64, cells),
	}
	for i := range req.Images {
		req.Images[i] = 4096 + int64(i)*23
	}
	for _, mode := range []struct {
		name string
		k    int
		run  func(url string) int
	}{
		{"buffered", workers + workers, func(url string) int {
			resp, body := post(t, url+"/v1/sweep", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("buffered sweep = %d: %.200s", resp.StatusCode, body)
			}
			var sr SweepResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			return sr.Count
		}},
		{"ndjson", streamWindowSize(workers), func(url string) int {
			got, _ := readStream(t, streamSweepRequest(t, url, req))
			return len(got)
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			// A fresh server per mode: every cell misses its result cache.
			_, ts := newTestServer(t, Config{Workers: workers, Timeout: 120 * time.Second})
			base := runtime.NumGoroutine()
			var peak atomic.Int64
			stop := make(chan struct{})
			sampled := make(chan struct{})
			go func() {
				defer close(sampled)
				for {
					if g := int64(runtime.NumGoroutine()); g > peak.Load() {
						peak.Store(g)
					}
					select {
					case <-stop:
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
			}()
			n := mode.run(ts.URL)
			close(stop)
			<-sampled
			if n != cells {
				t.Fatalf("%d records, want %d", n, cells)
			}
			if extra := int(peak.Load()) - base; extra > mode.k+slack {
				t.Errorf("peak %d goroutines over the %d at rest; want at most k=%d plus %d", extra, base, mode.k, slack)
			} else {
				t.Logf("peak %d goroutines over the %d at rest (k=%d)", extra, base, mode.k)
			}
		})
	}
}

// TestStreamClientDisconnect proves a mid-stream hangup cancels the
// remaining grid: the dispatcher stops, in-flight cells observe the
// cancelled context, the pool drains, and most of the grid was never
// simulated.
func TestStreamClientDisconnect(t *testing.T) {
	// 256 distinct cells, each a fresh compile on a single worker: the
	// stream takes long enough that the hangup lands mid-grid.
	grid := SweepRequest{
		Base:    core.Workload{Images: 1 << 18},
		Models:  []string{"resnet", "inception-v3", "googlenet", "alexnet"},
		GPUs:    []int{1, 2, 3, 4, 5, 6, 7, 8},
		Batches: []int{4, 8, 16, 32},
		Methods: []core.Method{core.P2P, core.NCCL},
	}
	size := grid.Size()
	svc, ts := newTestServer(t, Config{Workers: 1})

	resp := streamSweepRequest(t, ts.URL, grid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Read exactly one record, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first record: %v", err)
	}
	resp.Body.Close()

	// The pool must drain: no cell may keep running or sit queued once
	// the client is gone.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ps := svc.PoolStats()
		if ps.Active == 0 && ps.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain after disconnect: %+v", ps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Allow a brief settle for any cell that was mid-simulate at hangup.
	time.Sleep(50 * time.Millisecond)
	if got := svc.CacheStats().Size; got >= size/2 {
		t.Fatalf("cache holds %d reports, want far fewer than %d (remaining cells should never run)", got, size)
	}
}

// TestWriteNDJSONMarshalFailure: a record that cannot marshal must not
// vanish — the line carries an in-band internal-error envelope instead,
// so a stream never ends with neither summary nor error.
func TestWriteNDJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeNDJSON(rec, nil, map[string]any{"bad": math.NaN()})

	line := rec.Body.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("record is not newline-terminated: %q", line)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal([]byte(line), &env); err != nil {
		t.Fatalf("replacement record is not valid JSON: %q: %v", line, err)
	}
	if env.Error.Code != CodeInternal {
		t.Fatalf("replacement code = %q, want %q", env.Error.Code, CodeInternal)
	}
	if !strings.Contains(env.Error.Message, "encode stream record") {
		t.Fatalf("replacement message opaque: %q", env.Error.Message)
	}
}

// TestWriteNDJSONSummaryAlwaysPresent: the normal path still emits the
// record itself, newline-terminated, exactly once.
func TestWriteNDJSONSummaryAlwaysPresent(t *testing.T) {
	rec := httptest.NewRecorder()
	writeNDJSON(rec, nil, SweepSummary{SchemaVersion: SchemaVersion, Summary: SweepSummaryBody{Count: 3}})
	var s SweepSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil || s.Summary.Count != 3 {
		t.Fatalf("summary record mangled: %q (%v)", rec.Body.String(), err)
	}
}
