package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of a sorted sample: the
// ⌈q·n⌉-th smallest value. It refuses a quantile with fewer than ten
// samples beyond it (p99 needs 1,000 samples, p90 needs 100), because
// such a tail is one or two unlucky samples, not a property of the
// system.
func quantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.99·1000 must rank 990, not 991
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < 10 && q > 0.5 {
		return 0, fmt.Errorf("p%g needs at least 10 samples beyond it, have %d samples", 100*q, n)
	}
	return sorted[rank-1], nil
}

// minSamples is the sample count at which quantile accepts q.
func minSamples(q float64) int {
	if q <= 0.5 {
		return 1
	}
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// median is the nearest-rank median; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	v, _ := quantile(s, 0.5)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	ops     int       // operations that completed without error
	failed  int       // operations that returned an error
	lat     []float64 // latency of each successful op, seconds, sorted
	elapsed time.Duration
	cpu     time.Duration // CPU used by the benchmark and its daemons
	errs    []error       // the first few failures, for the log
	factor  float64       // mean reference factor while it ran (measure only)
}

func (p phase) throughput() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// loop drives a target closed-loop: conc clients each send op i, wait for
// it, then claim the next index. It runs ops first, first+1, ... until
// dur has passed and at least minOps have completed, or maxOps ops have
// been claimed. The ops executed are always a prefix of the sequence.
func loop(t target, conc, first int, dur time.Duration, minOps, maxOps int, tr *tracer) phase {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  phase
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			var lat []float64
			var failed int
			var errs []error
			for {
				n := int(next.Add(1)) - 1
				if n >= maxOps || n >= minOps && time.Since(start) >= dur {
					break
				}
				t0 := time.Now()
				err := t.op(first+n, client, tr)
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Errorf("op %d: %w", first+n, err))
					}
					continue
				}
				lat = append(lat, time.Since(t0).Seconds())
			}
			mu.Lock()
			out.lat = append(out.lat, lat...)
			out.failed += failed
			out.errs = append(out.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.ops = len(out.lat)
	sort.Float64s(out.lat)
	return out
}

// sliceLen is one slice of a measured phase; the reference load runs
// before each.
const sliceLen = time.Second

// measure runs the closed loop in slices of sliceLen, sampling the
// reference load before each slice. It stops once dur has passed and
// minOps ops have succeeded, or once maxOps ops have been claimed. Its
// times are as measured; factor is the mean reference factor of its
// slices.
func measure(t target, ref *reference, clients, first int, dur time.Duration, minOps, maxOps int, tr *tracer) (phase, error) {
	var out phase
	var factors []float64
	claimed := 0
	for claimed < maxOps && (out.elapsed < dur || out.ops < minOps) {
		f, err := ref.sample()
		if err != nil {
			return out, err
		}
		factors = append(factors, f)
		pids := t.pids()
		cpu0 := cpuTime(pids)
		ph := loop(t, clients, first+claimed, sliceLen, 1, maxOps-claimed, tr)
		out.cpu += cpuTime(pids) - cpu0
		out.elapsed += ph.elapsed
		claimed += ph.ops + ph.failed
		out.ops += ph.ops
		out.failed += ph.failed
		if len(out.errs) < 5 {
			out.errs = append(out.errs, ph.errs...)
		}
		out.lat = append(out.lat, ph.lat...)
	}
	out.factor = mean(factors)
	sort.Float64s(out.lat)
	return out, nil
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the user+system CPU the benchmark process and the given
// child processes have used so far.
func cpuTime(pids []int) time.Duration {
	var ru syscall.Rusage
	var d time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		d = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, pid := range pids {
		d += procCPU(pid)
	}
	return d
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU reads utime+stime of a live process from /proc.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u+st) * time.Second / clockTicks
}

// peakRSS sums VmHWM, the resident-set high-water mark, over this process
// (pid 0 stands for it) and the given children, in MiB.
func peakRSS(pids []int) float64 {
	total := 0.0
	for _, pid := range append([]int{0}, pids...) {
		path := "/proc/self/status"
		if pid != 0 {
			path = fmt.Sprintf("/proc/%d/status", pid)
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				total += kb / 1024
			}
		}
		f.Close()
	}
	return total
}

// envStamp identifies where and how a result was measured, so numbers
// from two machines are never compared unknowingly.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// Ops counts the measured ops behind a trace; results files carry it
	// per run instead.
	Ops int `json:"ops,omitempty"`
}

func stamp(root string, seed int64, seconds int) envStamp {
	commit := "unknown"
	// Only the checkout's own repository: git would otherwise search the
	// parent directories for one.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return envStamp{
		Commit: commit, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpu,
		Seed: seed, Seconds: seconds,
	}
}
