package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// serve posts body to path on s's handler and returns the recorder.
func serve(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// memoized returns the body memo's stored value for body at path, and
// whether there is one for exactly these bytes.
func memoized(path, body string) (*decoded, bool) {
	d, ok := bodies.g.Get(bodies.key(path, []byte(body)))
	return d, ok && string(d.body) == body
}

// snapshot renders everything a memoized value holds, pointers followed,
// so a write through any of them shows as a changed snapshot.
func snapshot(t *testing.T, d *decoded) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Body    []byte
		Key, FP string
		Req     workloadRequest
		WL      core.Workload
	}{d.body, d.key, d.fp, d.req, d.wl})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Many goroutines post one body carrying a fault plan (a pointer field)
// and its traced twin: every response is byte-identical to a fresh
// server's, and the values the body memo stored are never written.
func TestBodyMemoConcurrentHits(t *testing.T) {
	plain := `{"Model":"alexnet","GPUs":4,"Batch":16,"Images":4096,"faults":{"failedLinks":[{"a":1,"b":0}],"stragglers":[{"gpu":2,"slowdown":1.5}]}}`
	traced := `{"trace":true,"Model":"alexnet","GPUs":4,"Batch":16,"Images":4096,"faults":{"failedLinks":[{"a":1,"b":0}],"stragglers":[{"gpu":2,"slowdown":1.5}]}}`
	bodiesIn := []string{plain, traced}

	bodies.g.Reset()
	fresh := NewServer(Config{Workers: 2})
	want := make([][]byte, len(bodiesIn))
	snaps := make([]string, len(bodiesIn))
	vals := make([]*decoded, len(bodiesIn))
	for i, b := range bodiesIn {
		rec := serve(fresh, "/v1/simulate", b)
		if rec.Code != http.StatusOK {
			t.Fatalf("fresh server: status %d: %s", rec.Code, rec.Body)
		}
		want[i] = rec.Body.Bytes()
		d, ok := memoized("/v1/simulate", b)
		if !ok {
			t.Fatalf("body %d not memoized after a 200", i)
		}
		vals[i], snaps[i] = d, snapshot(t, d)
	}
	fresh.Close()
	if vals[0].fp == vals[1].fp || vals[0].key != vals[1].key {
		t.Fatalf("traced twin: cache keys %s, %s (want distinct); routing keys %s, %s (want equal)",
			vals[0].fp, vals[1].fp, vals[0].key, vals[1].key)
	}

	s := NewServer(Config{Workers: 2})
	defer s.Close()
	hits := DecodeMemoStats().Hits
	const goroutines, posts = 16, 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*posts)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				i := (g + p) % len(bodiesIn)
				rec := serve(s, "/v1/simulate", bodiesIn[i])
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- rec.Body.String()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("response differs from the fresh server's: %.200s", e)
	}
	if got := DecodeMemoStats().Hits - hits; got != goroutines*posts {
		t.Errorf("memo hits = %d, want %d (one per post)", got, goroutines*posts)
	}
	for i, b := range bodiesIn {
		d, ok := memoized("/v1/simulate", b)
		if !ok || d != vals[i] {
			t.Fatalf("body %d: memoized value replaced", i)
		}
		if got := snapshot(t, d); got != snaps[i] {
			t.Errorf("body %d: memoized value mutated:\n got %s\nwant %s", i, got, snaps[i])
		}
	}
}

// A body with different bytes but the same workload is decoded afresh
// and hits the result cache; the valid body with garbage appended stays
// a 400 after its twin is memoized, and is never stored.
func TestBodyMemoKeysOnExactBytes(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	body := `{"Model":"lenet","GPUs":2,"Batch":16,"Images":2048}`
	spaced := "{ \"Model\": \"lenet\",\n  \"GPUs\": 2, \"Batch\": 16, \"Images\": 2048 }\n"
	first := serve(s, "/v1/simulate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	for _, b := range []string{body, spaced} {
		rec := serve(s, "/v1/simulate", b)
		if rec.Header().Get("X-Cache") != "HIT" || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%q: X-Cache %q, identical body %v", b, rec.Header().Get("X-Cache"), bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()))
		}
		if _, ok := memoized("/v1/simulate", b); !ok {
			t.Errorf("%q not memoized", b)
		}
	}
	for _, b := range []string{spaced + " garbage", body + body, `{"Model":"lenet","GPUs":99,"Batch":16}`} {
		for pass := 0; pass < 2; pass++ {
			rec := serve(s, "/v1/simulate", b)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q pass %d: status %d, want 400", b, pass, rec.Code)
			}
			if _, ok := memoized("/v1/simulate", b); ok {
				t.Fatalf("%q: a rejected body was memoized", b)
			}
		}
	}
	// A body past the cap is refused before the memo is consulted.
	st := DecodeMemoStats()
	huge := body[:len(body)-1] + strings.Repeat(" ", maxBodyBytes) + "}"
	if rec := serve(s, "/v1/simulate", huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	if after := DecodeMemoStats(); after.Hits != st.Hits || after.Misses != st.Misses {
		t.Errorf("oversized body reached the memo: %+v -> %+v", st, after)
	}
}

// A hit still records the decode span, and the memo's counters are on
// /metrics.
func TestBodyMemoHitTracedAndCounted(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	body := `{"Model":"lenet","GPUs":1,"Batch":8,"Images":1024}`
	serve(s, "/v1/simulate", body)
	before := metricLine(t, renderMetrics(s), "dgxsimd_decode_memo_hits_total ")
	rec := serve(s, "/v1/simulate", body)
	tr, ok := s.traces.Get(rec.Header().Get("X-Request-ID"))
	if !ok {
		t.Fatal("hit's trace not stored")
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	if strings.Join(names, ",") != "decode,cache-lookup,encode" {
		t.Errorf("hit spans = %v, want decode, cache-lookup, encode", names)
	}
	after := metricLine(t, renderMetrics(s), "dgxsimd_decode_memo_hits_total ")
	if before == after {
		t.Errorf("dgxsimd_decode_memo_hits_total stayed %s across a hit", after)
	}
	for _, series := range []string{"dgxsimd_decode_memo_misses_total ", "dgxsimd_decode_memo_evictions_total "} {
		metricLine(t, renderMetrics(s), series)
	}
}

// A slot held by other bytes, as after a hash collision, is a miss: the
// body is decoded afresh, never served the other body's request, and
// takes the slot.
func TestBodyMemoCollisionIsAMiss(t *testing.T) {
	m := newBodyMemo()
	e := apiEndpoints[slices.IndexFunc(apiEndpoints, func(e endpointDef) bool { return e.pattern == "/v1/simulate" })]
	a, b := []byte(`{"Model":"lenet","GPUs":1,"Batch":8}`), []byte(`{"Model":"lenet","GPUs":2,"Batch":8}`)
	da, err := m.resolve(e, a)
	if err != nil {
		t.Fatal(err)
	}
	m.g.Add(m.key(e.pattern, b), da)
	db, err := m.resolve(e, b)
	if err != nil {
		t.Fatal(err)
	}
	if db == da || db.wl.GPUs != 2 {
		t.Fatalf("body %s served the request of %s", b, da.body)
	}
	if again, _ := m.resolve(e, b); again != db {
		t.Fatal("the fresh decode did not take the slot")
	}
}
