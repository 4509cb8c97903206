package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by 10–20% over
// minutes, far more than the regressions it must catch. So every time it
// reports is scaled to a reference speed: before each set-up and between
// one-second slices of the measured phase, a child process runs a fixed
// reference load — loopback HTTP round trips and a CPU kernel of JSON,
// hashing, maps and sorting, none of it the code under test — and the
// mean ratio of its rate to the nominal rates below scales every time of
// the run. One sample is noisy (±13%), the drift is slow, so the run's
// mean beats per-slice factors. The child is a separate process so the
// workload's heap and GC cannot slow the reference down, which would hide
// a gain.

// referenceEnv, when set to 1, makes the benchmark binary serve reference
// measurements on stdin and stdout instead of benchmarking.
const referenceEnv = "DGXSIM_BENCH_REFERENCE"

// Nominal rates of the two halves of the reference load on the 2-vCPU Xeon
// the benchmark was sized on. A factor of 1 means the host runs at that
// speed now; the values only fix the unit, so they never need updating.
const (
	referenceEchoRate = 35000 // round trips per second, two clients
	referenceCPURate  = 12000 // kernel units per second, one goroutine per CPU
	referenceSlice    = 100 * time.Millisecond
)

// reference is the child process that runs the reference load.
type reference struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	factors []float64 // every sample taken so far
}

func startReference() (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), referenceEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference load: %w", err)
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// sample measures the host's current speed relative to the reference
// host, the geometric mean of the two halves' rate ratios, and keeps it.
func (r *reference) sample() (float64, error) {
	if _, err := io.WriteString(r.in, "measure\n"); err != nil {
		return 0, fmt.Errorf("reference load: %w", err)
	}
	if !r.out.Scan() {
		return 0, fmt.Errorf("reference load exited: %v", r.out.Err())
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(r.out.Text()), 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("reference load answered %q", r.out.Text())
	}
	r.factors = append(r.factors, f)
	return f, nil
}

// stop ends the child and waits for it.
func (r *reference) stop() {
	r.in.Close()
	r.cmd.Wait()
}

// serveReference is the child's side: one factor per "measure" line.
func serveReference(in io.Reader, out io.Writer) error {
	reply := make([]byte, 1500)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(reply)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	body := make([]byte, 200)
	echo := func() error {
		resp, err := client.Post(srv.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		e, err := rate(2, echo)
		if err != nil {
			return err
		}
		c, _ := rate(runtime.NumCPU(), func() error { kernelUnit(); return nil })
		fmt.Fprintln(out, math.Sqrt(e/referenceEchoRate*c/referenceCPURate))
	}
	return sc.Err()
}

// rate runs f closed-loop on n goroutines for referenceSlice and returns
// calls per second.
func rate(n int, f func() error) (float64, error) {
	var (
		calls atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < referenceSlice {
				if err := f(); err != nil {
					mu.Lock()
					first = err
					mu.Unlock()
					return
				}
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(calls.Load()) / time.Since(start).Seconds(), first
}

type kernelRecord struct {
	Name  string
	Value float64
	Tags  []string
}

var kernelInput = func() []kernelRecord {
	out := make([]kernelRecord, 64)
	for i := range out {
		out[i] = kernelRecord{Name: fmt.Sprintf("record-%03d", i), Value: float64(i * 7919 % 1000), Tags: []string{"a", "bb", strconv.Itoa(i)}}
	}
	return out
}()

var kernelOut atomic.Uint64

// kernelUnit is the CPU half of the reference load: allocation, map
// updates, JSON round trip, hashing and sorting, like the service's own
// work but none of its code.
func kernelUnit() {
	m := make(map[string]int, len(kernelInput))
	for i, r := range kernelInput {
		m[r.Name] = i
	}
	b, _ := json.Marshal(kernelInput)
	var back []kernelRecord
	json.Unmarshal(b, &back)
	sum := sha256.Sum256(b)
	xs := make([]float64, len(back))
	for i, r := range back {
		xs[i] = r.Value
	}
	sort.Float64s(xs)
	kernelOut.Add(uint64(sum[0]) + uint64(len(m)) + uint64(xs[0]))
}
