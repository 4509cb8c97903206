package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/train"
)

// decodeEnvelope parses a response body as the shared error envelope.
func decodeEnvelope(t *testing.T, body []byte) ErrorDetail {
	t.Helper()
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("body %q is not an error envelope: %v", body, err)
	}
	if e.Error.Code == "" {
		t.Fatalf("envelope %q has no error code", body)
	}
	return e.Error
}

// TestClassifyTaxonomy pins the whole error taxonomy: every class of
// failure maps to a stable (status, code, retryable) triple, including
// when the error arrives wrapped by a grid cell's context.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		status    int
		code      string
		retryable bool
	}{
		{"queue full", ErrQueueFull, http.StatusTooManyRequests, CodeQueueFull, true},
		{"queue full wrapped", fmt.Errorf("task 3: %w", ErrQueueFull), http.StatusTooManyRequests, CodeQueueFull, true},
		{"deadline while queued", admissionError{context.DeadlineExceeded}, http.StatusServiceUnavailable, CodeDeadlineQueued, true},
		{"deadline mid-work", context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadline, false},
		{"deadline wrapped", fmt.Errorf("task 0: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, CodeDeadline, false},
		{"client gone", context.Canceled, 499, CodeClientGone, false},
		{"bad request", badRequestError{errors.New("no such model")}, http.StatusBadRequest, CodeBadRequest, false},
		{"schema version", schemaVersionError{errors.New("speaks 2")}, http.StatusBadRequest, CodeSchemaVersion, false},
		{"body too large", &http.MaxBytesError{Limit: maxBodyBytes}, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, false},
		{"out of memory", fmt.Errorf("train: googlenet batch 512 on 1 GPUs: %w", gpu.ErrOutOfMemory), http.StatusUnprocessableEntity, CodeOutOfMemory, false},
		{"epoch too large", fmt.Errorf("train: %w: 10 iterations", train.ErrEpochTooLarge), http.StatusBadRequest, CodeInvalidArgument, false},
		{"epoch too large on decode", badRequestError{fmt.Errorf("core: %w: 10 images", train.ErrEpochTooLarge)}, http.StatusBadRequest, CodeInvalidArgument, false},
		{"internal", errors.New("boom"), http.StatusInternalServerError, CodeInternal, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, d := classify(tc.err)
			if status != tc.status {
				t.Errorf("status = %d, want %d", status, tc.status)
			}
			if d.Code != tc.code {
				t.Errorf("code = %q, want %q", d.Code, tc.code)
			}
			if d.Retryable != tc.retryable {
				t.Errorf("retryable = %v, want %v", d.Retryable, tc.retryable)
			}
			if d.Message == "" {
				t.Error("message must not be empty")
			}
		})
	}
}

// Shed statuses carry Retry-After; everything else must not.
func TestWriteEnvelopeRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusBadRequest, false},
		{http.StatusGatewayTimeout, false},
		{http.StatusInternalServerError, false},
	} {
		rec := httptest.NewRecorder()
		writeEnvelope(rec, tc.status, ErrorDetail{Code: CodeInternal, Message: "x"})
		if got := rec.Header().Get("Retry-After") != ""; got != tc.want {
			t.Errorf("status %d: Retry-After present = %v, want %v", tc.status, got, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("status %d: Content-Type = %q", tc.status, ct)
		}
		decodeEnvelope(t, rec.Body.Bytes())
	}
}

// TestEnvelopeOnEveryStatusPath drives the real server through each
// reachable error status and asserts the body is always the envelope —
// no bare-string error bodies anywhere.
func TestEnvelopeOnEveryStatusPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	do := func(t *testing.T, method, path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.DefaultClient.Do(mustReq(t, method, ts.URL+path, body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp, readAll(t, resp)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed json", "POST", "/v1/simulate", "{", http.StatusBadRequest, CodeBadRequest},
		{"unknown field", "POST", "/v1/simulate", `{"Bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"invalid workload", "POST", "/v1/simulate", `{"Model":"vgg","GPUs":1,"Batch":16}`, http.StatusBadRequest, CodeBadRequest},
		// Async SGD simulates neither checkpointing nor buckets, so it
		// rejects both rather than report a run it did not simulate.
		{"async checkpointing", "POST", "/v1/simulate", `{"Model":"resnet","GPUs":4,"Batch":32,"Method":"p2p","Async":true,"Checkpointing":true}`, http.StatusBadRequest, CodeBadRequest},
		{"async bucket", "POST", "/v1/simulate", `{"Model":"resnet","GPUs":4,"Batch":32,"Method":"p2p","Async":true,"BucketKB":4096}`, http.StatusBadRequest, CodeBadRequest},
		{"foreign schema version", "POST", "/v1/simulate", `{"schemaVersion":99,"Model":"lenet","GPUs":1,"Batch":16}`, http.StatusBadRequest, CodeSchemaVersion},
		{"sweep schema version", "POST", "/v1/sweep", `{"schemaVersion":99,"Base":{"Model":"lenet","GPUs":1,"Batch":16}}`, http.StatusBadRequest, CodeSchemaVersion},
		{"optimize bad objective", "POST", "/v1/optimize", `{"base":{"Model":"lenet","GPUs":1,"Batch":16},"objective":"fastest"}`, http.StatusBadRequest, CodeBadRequest},
		{"wrong method", "GET", "/v1/simulate", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"unknown v1 path", "GET", "/v1/bogus", "", http.StatusNotFound, CodeNotFound},
		// The path is checked before the method: an unrouted path is 404
		// whatever the method, never the index's 405.
		{"unknown v1 path, wrong method", "POST", "/v1/nope", "{}", http.StatusNotFound, CodeNotFound},
		{"missing trace", "GET", "/v1/trace/deadbeef00000000", "", http.StatusNotFound, CodeNotFound},
		{"oversized body", "POST", "/v1/simulate", `{"Model":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			d := decodeEnvelope(t, body)
			if d.Code != tc.code {
				t.Errorf("code = %q, want %q (%s)", d.Code, tc.code, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
		})
	}
}

// oomWorkload does not fit in device memory (GoogLeNet's wall is below
// batch 256; the paper's Table IV).
const oomWorkload = `{"Model":"googlenet","GPUs":1,"Batch":512}`

// A workload that does not fit in device memory is the client's input,
// not a server fault: every endpoint that runs it answers 422
// out_of_memory, not retryable — the buffered sweep and compare as a
// whole, and a streamed sweep in-band once a cell is on the wire.
func TestOutOfMemoryIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, path, body string }{
		{"simulate", "/v1/simulate", oomWorkload},
		{"compare", "/v1/compare", oomWorkload},
		{"sweep", "/v1/sweep", `{"Base":` + oomWorkload + `,"Batches":[16,512]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422 (%s)", resp.StatusCode, body)
			}
			if d := decodeEnvelope(t, body); d.Code != CodeOutOfMemory || d.Retryable {
				t.Errorf("envelope = %+v, want out_of_memory, not retryable", d)
			}
		})
	}
	t.Run("sweep in-band", func(t *testing.T) {
		var base core.Workload
		if err := json.Unmarshal([]byte(oomWorkload), &base); err != nil {
			t.Fatal(err)
		}
		resp := streamSweepRequest(t, ts.URL, SweepRequest{Base: base, Batches: []int{16, 512}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 (the first cell fits)", resp.StatusCode)
		}
		lines := strings.Split(strings.TrimSpace(string(readAll(t, resp))), "\n")
		if len(lines) != 2 {
			t.Fatalf("%d records, want the fitting cell and an error record: %q", len(lines), lines)
		}
		if d := decodeEnvelope(t, []byte(lines[1])); d.Code != CodeOutOfMemory || d.Retryable {
			t.Errorf("in-band record = %+v, want out_of_memory, not retryable", d)
		}
	})
}

// An epoch too large to represent is the request's property, whether
// Validate bounds its images or the extrapolation finds its time past
// int64 nanoseconds: 400 invalid_argument, not retryable, never a 500 and
// never a cached answer, on every endpoint that runs it.
func TestEpochTooLargeIs400(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	const tooLong = `{"Model":"resnet","GPUs":8,"Batch":1,"Method":"p2p","Images":1000000000000}`
	for _, tc := range []struct{ name, path, body string }{
		{"images past the bound", "/v1/simulate", `{"Model":"lenet","GPUs":8,"Batch":16,"Images":9223372036854775807}`},
		{"weak images past the bound", "/v1/simulate", `{"Model":"lenet","GPUs":8,"Batch":16,"Images":1099511627776,"WeakScaling":true}`},
		{"epoch time past int64", "/v1/simulate", tooLong},
		{"epoch time past int64 again", "/v1/simulate", tooLong},
		{"compare", "/v1/compare", tooLong},
		{"sweep", "/v1/sweep", `{"Base":` + tooLong + `,"Batches":[1]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			if d := decodeEnvelope(t, body); d.Code != CodeInvalidArgument || d.Retryable || !strings.Contains(d.Message, "epoch too large") {
				t.Errorf("envelope = %+v, want invalid_argument naming the epoch, not retryable", d)
			}
		})
	}
	if st := svc.CacheStats(); st.Size != 0 || st.Hits != 0 {
		t.Errorf("cache %+v after only failed requests; want nothing stored or served", st)
	}
}

// A shed response must carry the envelope (code queue_full, retryable)
// alongside its Retry-After header.
func TestShedCarriesEnvelope(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	// Occupy the single worker, then the single queue slot (retrying
	// until the worker has dequeued the blocker and freed the slot).
	if err := svc.pool.TrySubmit(func() { <-release }); err != nil {
		t.Fatalf("blocker not admitted: %v", err)
	}
	queued := false
	for deadline := time.Now().Add(5 * time.Second); !queued && time.Now().Before(deadline); {
		if err := svc.pool.TrySubmit(func() { <-release }); err == nil {
			queued = true
		}
	}
	if !queued {
		t.Fatal("failed to occupy the queue slot")
	}
	resp, body := post(t, ts.URL+"/v1/simulate",
		core.Workload{Model: "lenet", GPUs: 1, Batch: 16, Images: 4096})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	d := decodeEnvelope(t, body)
	if d.Code != CodeQueueFull || !d.Retryable {
		t.Errorf("envelope = %+v, want queue_full/retryable", d)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
}

func mustReq(t *testing.T, method, url, body string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
