package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
)

// validBodies holds one accepted body per POST endpoint.
var validBodies = map[string]string{
	"/v1/simulate":         `{"Model":"lenet","GPUs":1,"Batch":16}`,
	"/v1/compare":          `{"Model":"lenet","GPUs":1,"Batch":16}`,
	"/v1/sweep":            `{"Base":{"Model":"lenet","GPUs":1,"Batch":16},"GPUs":[1,2]}`,
	"/v1/optimize":         `{"base":{"Model":"lenet","GPUs":1,"Batch":16},"space":{"gpus":[1]}}`,
	"/v1/validate":         `{"schemaVersion":1,"Model":"lenet","GPUs":1,"Batch":16}`,
	"/v1/cluster/simulate": tinyClusterBody,
}

// postEndpoints is every endpoint that decodes a body; the test fails if
// one has no entry in validBodies, so a new endpoint cannot skip the
// contract tests.
func postEndpoints(t testing.TB) []endpointDef {
	var out []endpointDef
	for _, e := range apiEndpoints {
		if e.decode == nil {
			continue
		}
		if _, ok := validBodies[e.path]; !ok {
			t.Fatalf("%s decodes a body but has no entry in validBodies", e.path)
		}
		out = append(out, e)
	}
	return out
}

// Anything after the one JSON value but whitespace is a 400 on every
// POST endpoint, checked before any simulation starts.
func TestTrailingDataRejected(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	for _, e := range postEndpoints(t) {
		body := validBodies[e.path]
		for name, b := range map[string]string{
			"garbage":      body + " garbage",
			"second value": body + body,
		} {
			t.Run(e.path+"/"+name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path, strings.NewReader(b)))
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400 (%s)", rec.Code, rec.Body)
				}
				if d := decodeEnvelope(t, rec.Body.Bytes()); d.Code != CodeBadRequest {
					t.Errorf("code = %q, want %q", d.Code, CodeBadRequest)
				}
			})
		}
	}
}

// Trailing whitespace — such as the newline json.Encoder writes — stays
// accepted.
func TestTrailingWhitespaceAccepted(t *testing.T) {
	for _, e := range postEndpoints(t) {
		for _, tail := range []string{"\n", " \t\r\n"} {
			if _, err := e.decode([]byte(validBodies[e.path] + tail)); err != nil {
				t.Errorf("%s + %q: %v", e.path, tail, err)
			}
		}
	}
}

// Every POST endpoint's body cap is its own: the cluster endpoint reads
// past the workload endpoints' cap, up to its own.
func TestContractBodyCaps(t *testing.T) {
	for path, want := range map[string]int64{
		"/v1/simulate":         maxBodyBytes,
		"/v1/sweep":            maxBodyBytes,
		"/v1/cluster/simulate": maxClusterBodyBytes,
		"/v1/models":           maxBodyBytes,
		"/v1/nope":             maxBodyBytes,
	} {
		if got, _ := Contract(path); got != want {
			t.Errorf("Contract(%q) cap = %d, want %d", path, got, want)
		}
	}
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	big := `{"nodes":[{"count":1}],"policy":"first-fit"` + strings.Repeat(" ", maxBodyBytes) + `}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/simulate", strings.NewReader(big)))
	if rec.Code == http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte cluster spec hit the workload cap", len(big))
	}
	huge := `{"nodes":[{"count":1}]` + strings.Repeat(" ", maxClusterBodyBytes) + `}`
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/simulate", strings.NewReader(huge)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte cluster spec: status %d, want 413", len(huge), rec.Code)
	}
}

// lenientAffinityKey is the gateway's routing key from before the
// request contract existed: a lenient json.Unmarshal per path, with no
// unknown-field, version or trailing-data checks. For every body the
// strict decoder accepts, the contract's key must agree with it, so
// existing affinity survives the switch.
func lenientAffinityKey(path string, body []byte) string {
	switch path {
	case "/v1/simulate", "/v1/compare", "/v1/validate":
		var wl core.Workload
		if err := json.Unmarshal(body, &wl); err == nil {
			return wl.Fingerprint()
		}
	case "/v1/sweep":
		var req struct{ Base core.Workload }
		if err := json.Unmarshal(body, &req); err == nil {
			return req.Base.Fingerprint()
		}
	case "/v1/optimize":
		var req struct {
			Base core.Workload `json:"base"`
		}
		if err := json.Unmarshal(body, &req); err == nil {
			return req.Base.Fingerprint()
		}
	}
	if len(body) > 0 {
		sum := sha256.Sum256(body)
		return hex.EncodeToString(sum[:])
	}
	return path
}

// FuzzDecodeRequest drives arbitrary bytes through an endpoint's request
// contract — its strict decoder, then the validation its handler runs on
// the routed workload. The outcome is a 4xx class or a request, never a
// panic; an accepted workload fingerprints like its normalized form; the
// routing key a proxy computes agrees with the lenient key for every body
// the strict decoder accepts; and resolving the body twice through a
// fresh body memo (store, then hit) gives exactly what a fresh decode
// gives: the same request, fingerprint and routing key, or the same error
// envelope. (A body past the cap never reaches the decoder: readBody
// refuses it first, which TestContractBodyCaps covers.)
func FuzzDecodeRequest(f *testing.F) {
	for i, e := range apiEndpoints {
		body, ok := validBodies[e.path]
		if !ok {
			body = "{}"
		}
		f.Add(uint8(i), []byte(body))
		f.Add(uint8(i), []byte(body+" garbage"))
		f.Add(uint8(i), []byte(body+"\n"))
	}
	for _, body := range []string{
		``, `null`, `[]`, `{"schemaVersion":2}`, `{"trace":true,"Model":"lenet","GPUs":2,"Batch":8}`,
		`{"Model":"lenet","GPUs":4,"Batch":16,"Hardware":"dgx2","faults":{"stragglers":[{"gpu":1,"slowdown":2}]}}`,
		`{"Model":"resnet","GPUs":8,"Batch":16,"NCCLTree":true,"Protocol":"auto"}`,
		`{"Base":{"Model":"alexnet","GPUs":2,"Batch":32,"Method":"p2p"},"Protocols":["ll"]}`,
		`{"trace":true,"TraceIntervals":7,"Model":"alexnet","GPUs":2,"Batch":8,"Method":"p2p"}`,
		`{"Model":"lenet","GPUs":8,"Batch":16,"Images":9223372036854775807}`,
		`{"Model":"lenet","GPUs":8,"Batch":16,"Images":1099511627776}`,
		`{"Model":"lenet","GPUs":8,"Batch":16,"Images":2305843009213693952,"WeakScaling":true}`,
		`{"Model":"lenet","GPUs":8,"Batch":16,"Images":137438953472,"WeakScaling":true}`,
	} {
		f.Add(uint8(1), []byte(body))
		f.Add(uint8(3), []byte(body))
	}
	// Past the size the memo stores: decoded every time.
	f.Add(uint8(1), []byte(validBodies["/v1/simulate"]+strings.Repeat(" ", bodyMemoMaxBody)))
	fourXX := []string{CodeBadRequest, CodeSchemaVersion, CodeInvalidArgument, CodeBodyTooLarge}
	f.Fuzz(func(t *testing.T, idx uint8, body []byte) {
		e := apiEndpoints[int(idx)%len(apiEndpoints)]
		maxBody, key := Contract(e.pattern)
		if e.decode == nil {
			if got, want := key(body), lenientAffinityKey(e.pattern, body); got != want {
				t.Fatalf("%s: routing key %s, lenient key %s", e.path, got, want)
			}
			return
		}
		if int64(len(body)) > maxBody {
			return
		}
		checkMemoAgrees(t, e, body)
		req, err := e.decode(body)
		if err != nil {
			if _, d := classify(err); !slices.Contains(fourXX, d.Code) {
				t.Fatalf("%s: decode error classed %q: %v", e.path, d.Code, err)
			}
			return
		}
		if got, want := key(body), lenientAffinityKey(e.path, body); got != want {
			t.Fatalf("%s %q: routing key %s, lenient key %s", e.path, body, got, want)
		}
		wl := req.routed()
		if wl == nil {
			return
		}
		if err := wl.Validate(); err != nil {
			if _, d := classify(badRequestError{err}); !slices.Contains(fourXX, d.Code) {
				t.Fatalf("%s: validation error classed %q: %v", e.path, d.Code, err)
			}
			return
		}
		if a, b := wl.Fingerprint(), wl.Normalize().Fingerprint(); a != b {
			t.Fatalf("%s %+v: fingerprint %s, normalized %s", e.path, *wl, a, b)
		}
	})
}

// checkMemoAgrees resolves body twice through a fresh body memo and
// checks both results against a decode that bypasses it. A body that
// passed the whole contract must be stored by the first pass and served
// by the second; any other body must be decoded both times.
func checkMemoAgrees(t *testing.T, e endpointDef, body []byte) {
	t.Helper()
	want, wantErr := decodeBody(e, body)
	m := newBodyMemo()
	for pass := 1; pass <= 2; pass++ {
		got, err := m.resolve(e, body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s %q pass %d: memo error %v, fresh decode error %v", e.path, body, pass, err, wantErr)
		}
		if err != nil {
			gs, gd := classify(err)
			ws, wd := classify(wantErr)
			if gs != ws || gd != wd {
				t.Fatalf("%s %q pass %d: memo envelope %d %+v, fresh %d %+v", e.path, body, pass, gs, gd, ws, wd)
			}
			continue
		}
		if got.key != want.key || got.fp != want.fp || !reflect.DeepEqual(got.req, want.req) || !reflect.DeepEqual(got.wl, want.wl) {
			t.Fatalf("%s %q pass %d: memo %+v, fresh %+v", e.path, body, pass, got, want)
		}
		if (got.invalid == nil) != (want.invalid == nil) || got.invalid != nil && got.invalid.Error() != want.invalid.Error() {
			t.Fatalf("%s %q pass %d: memo invalid %v, fresh %v", e.path, body, pass, got.invalid, want.invalid)
		}
		if stored := got.invalid == nil && len(body) <= bodyMemoMaxBody; stored && !bytes.Equal(got.body, body) {
			t.Fatalf("%s %q pass %d: memo holds body %q", e.path, body, pass, got.body)
		}
	}
	wantStats := memo.Stats{Max: bodyMemoMax}
	switch {
	case len(body) > bodyMemoMaxBody:
	case wantErr == nil && want.invalid == nil:
		wantStats.Size, wantStats.Hits, wantStats.Misses = 1, 1, 1
	default:
		wantStats.Misses = 2
	}
	if st := m.g.Stats(); st != wantStats {
		t.Fatalf("%s %q: memo stats %+v, want %+v", e.path, body, st, wantStats)
	}
}
