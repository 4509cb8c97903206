// The immutability contract of the preserialized response cache, under
// the race detector. The old cache stored *core.Report: every hit for a
// fingerprint aliased one struct, so any later code path mutating a
// report (or its profile) would silently corrupt every subsequent hit.
// The byte cache makes corruption structurally impossible — hits write
// immutable bytes — and this test is the tripwire that keeps it that
// way: concurrent handlers serve the same fingerprint while sweeps
// extrapolate (and scale profiles off) the same compiled window, and
// every response must stay byte-identical. CI runs the package under
// `go test -race`, so an append into a shared body or a write through a
// shared profile fails loudly here.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestCacheHitsByteIdenticalUnderConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent stress test")
	}
	_, ts := newTestServer(t, Config{Workers: 4})

	wl := core.Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 4096}
	resp, reference := post(t, ts.URL+"/v1/simulate", workloadRequest{Workload: wl})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d: %s", resp.StatusCode, reference)
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("prime should miss, got %q", resp.Header.Get("X-Cache"))
	}

	const (
		readers = 6
		iters   = 20
		sweeps  = 3
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// Sweeps over the same model keep the shared compiled window busy:
	// every cell extrapolates it, cells with larger epochs clone-and-scale
	// its profile, and the wl cell itself is served from the byte cache.
	for g := 0; g < sweeps; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := SweepRequest{
				Base:    wl,
				Images:  []int64{4096, 64 * 1024, 256 * 1024},
				Batches: []int{16, 32},
			}
			resp, body := post(t, ts.URL+"/v1/sweep", req)
			if resp.StatusCode != http.StatusOK {
				fail(fmt.Errorf("sweep: status %d: %s", resp.StatusCode, body))
			}
		}()
	}
	// Concurrent hits on one fingerprint: every body must equal the
	// primed response byte for byte, no matter what the sweeps are doing
	// to the underlying window.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, body := post(t, ts.URL+"/v1/simulate", workloadRequest{Workload: wl})
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("hit: status %d: %s", resp.StatusCode, body))
					return
				}
				if hdr := resp.Header.Get("X-Cache"); hdr != "HIT" {
					fail(fmt.Errorf("X-Cache = %q, want HIT", hdr))
					return
				}
				if !bytes.Equal(body, reference) {
					fail(fmt.Errorf("cache hit drifted from primed response:\n got %s\nwant %s", body, reference))
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// TestCompareNestedReportMatchesSimulate pins the envelope splice: the
// report nested in a /v1/compare result must be byte-identical to the
// corresponding /v1/simulate body minus its schemaVersion field — both
// come from the same cached bytes, one spliced, one verbatim.
func TestCompareNestedReportMatchesSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	wl := core.Workload{Model: "lenet", GPUs: 2, Batch: 16, Images: 4096}

	var sim [2][]byte
	for i, m := range []core.Method{core.P2P, core.NCCL} {
		wm := wl
		wm.Method = m
		resp, body := post(t, ts.URL+"/v1/simulate", workloadRequest{Workload: wm})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %s: status %d: %s", m, resp.StatusCode, body)
		}
		tail, ok := bytes.CutPrefix(bytes.TrimSuffix(body, []byte("\n")), envelopePrefix)
		if !ok {
			t.Fatalf("simulate %s: body lacks envelope prefix %q", m, envelopePrefix)
		}
		sim[i] = append([]byte{'{'}, tail...)
	}

	resp, body := post(t, ts.URL+"/v1/compare", workloadRequest{Workload: wl})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: status %d: %s", resp.StatusCode, body)
	}
	// CompareResponse would re-marshal the reports; keep their bytes.
	var cw struct {
		Results []struct {
			Method core.Method     `json:"method"`
			Report json.RawMessage `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &cw); err != nil {
		t.Fatal(err)
	}
	if len(cw.Results) != 2 {
		t.Fatalf("compare results = %d, want 2", len(cw.Results))
	}
	for i := range cw.Results {
		if !bytes.Equal(cw.Results[i].Report, sim[i]) {
			t.Errorf("compare arm %d report differs from /v1/simulate bytes:\n got %s\nwant %s",
				i, cw.Results[i].Report, sim[i])
		}
	}
}
