// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON baseline on stdout, so benchmark snapshots can be
// committed and diffed (`make bench-json` writes BENCH_<date>.json).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkCoreRun' -benchmem . | benchjson -date 2026-08-06
//
// Only benchmark result lines are parsed; everything else (goos/pkg
// headers, PASS, logs) is carried into no field and ignored. Each line
//
//	BenchmarkCoreRunWarm-8  204933  5773 ns/op  3592 B/op  45 allocs/op
//
// becomes {"name":"CoreRunWarm","iterations":204933,"nsPerOp":5773,...};
// extra custom metrics (e.g. "0.95 cache-hit-ratio") land in "metrics".
//
// Gate mode (`-diff BASELINE.json -max-regress 25%`) compares the fresh
// run against a committed baseline instead of just converting it. The
// fresh JSON still goes to stdout (CI uploads it as an artifact); the
// verdict goes to stderr and the exit code. Run benchmarks with
// -count=3 or more: duplicate lines for one benchmark are folded to the
// best (minimum) ns/op and allocs/op, so scheduler noise on a shared
// runner can only make the gate pass, never fail, spuriously.
//
//	go test -run '^$' -bench . -benchmem -count=3 . |
//	    benchjson -diff BENCH_2026-08-08.json -max-regress 25%
//
// A benchmark present in the baseline but missing from the fresh run
// fails the gate (a silently deleted benchmark is a silently deleted
// floor); a new benchmark absent from the baseline passes with a
// warning (it gains a floor the next time the baseline is refreshed).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  int64              `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64              `json:"allocsPerOp,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed file shape. Go, CPU and GOMAXPROCS say where
// the numbers came from, so a snapshot from one machine is never mistaken
// for one from another.
type Baseline struct {
	Date       string   `json:"date,omitempty"`
	Go         string   `json:"go,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its edges injected, so the gate's verdicts are table-
// testable. It returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	date := fs.String("date", "", "snapshot date stamped into the output")
	diff := fs.String("diff", "", "baseline JSON to gate against (enables gate mode)")
	maxRegress := fs.String("max-regress", "10%", "max allowed regression vs the baseline, e.g. 25%")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fresh, err := parseBench(stdin, *date)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	// benchjson runs under the same go command as the benchmarks it reads
	// (make bench-json pipes one into the other), so its toolchain is
	// theirs.
	fresh.Go = runtime.Version()
	if len(fresh.Benchmarks) == 0 {
		// A broken -bench regexp or a compile failure upstream of the pipe
		// must not convert to a plausible-looking empty baseline — and in
		// gate mode an empty run would vacuously "not regress".
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fresh); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if *diff == "" {
		return 0
	}

	threshold, err := parsePercent(*maxRegress)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	raw, err := os.ReadFile(*diff)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchjson: parse baseline %s: %v\n", *diff, err)
		return 1
	}
	if len(base.Benchmarks) == 0 {
		fmt.Fprintf(stderr, "benchjson: baseline %s has no benchmarks\n", *diff)
		return 1
	}
	failures := gate(base, fresh, threshold, stderr)
	if failures > 0 {
		fmt.Fprintf(stderr, "benchjson: FAIL: %d benchmark(s) regressed beyond %.0f%% of %s\n",
			failures, threshold, *diff)
		return 1
	}
	fmt.Fprintf(stderr, "benchjson: ok: %d benchmark(s) within %.0f%% of %s\n",
		len(base.Benchmarks), threshold, *diff)
	return 0
}

// parseBench reads raw `go test -bench -benchmem` output and folds
// duplicate lines (from -count=N) into one best-of-N Result per
// benchmark: minimum ns/op, bytes/op, and allocs/op. The minimum is the
// right statistic for a gate — a loaded CI runner inflates individual
// runs but the best of three approaches the machine's true floor.
func parseBench(r io.Reader, date string) (Baseline, error) {
	base := Baseline{Date: date}
	best := make(map[string]*Result)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			base.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if !ok {
				continue
			}
			if base.GOMAXPROCS == 0 {
				base.GOMAXPROCS = procs(line)
			}
			prev, seen := best[res.Name]
			if !seen {
				r := res
				best[res.Name] = &r
				order = append(order, res.Name)
				continue
			}
			if res.NsPerOp < prev.NsPerOp {
				prev.NsPerOp = res.NsPerOp
				prev.Iterations = res.Iterations
			}
			if res.BytesPerOp < prev.BytesPerOp {
				prev.BytesPerOp = res.BytesPerOp
			}
			if res.AllocsPerOp < prev.AllocsPerOp {
				prev.AllocsPerOp = res.AllocsPerOp
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Baseline{}, err
	}
	for _, name := range order {
		base.Benchmarks = append(base.Benchmarks, *best[name])
	}
	return base, nil
}

// gate compares fresh against base, writing one line per verdict to w,
// and returns the number of failing benchmarks. A benchmark fails when
// its fresh ns/op or allocs/op exceeds the baseline by more than
// threshold percent, or when it is missing from the fresh run entirely.
func gate(base, fresh Baseline, threshold float64, w io.Writer) int {
	freshBy := make(map[string]Result, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		freshBy[r.Name] = r
	}
	baseNames := make(map[string]bool, len(base.Benchmarks))
	failures := 0
	for _, b := range base.Benchmarks {
		baseNames[b.Name] = true
		f, ok := freshBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "benchjson: FAIL %s: present in baseline but missing from fresh run\n", b.Name)
			failures++
			continue
		}
		bad := false
		if reg := regression(b.NsPerOp, f.NsPerOp); reg > threshold {
			fmt.Fprintf(w, "benchjson: FAIL %s: ns/op %.0f -> %.0f (+%.1f%% > %.0f%%)\n",
				b.Name, b.NsPerOp, f.NsPerOp, reg, threshold)
			bad = true
		}
		if reg := regression(float64(b.AllocsPerOp), float64(f.AllocsPerOp)); reg > threshold {
			fmt.Fprintf(w, "benchjson: FAIL %s: allocs/op %d -> %d (+%.1f%% > %.0f%%)\n",
				b.Name, b.AllocsPerOp, f.AllocsPerOp, reg, threshold)
			bad = true
		}
		if bad {
			failures++
		} else {
			fmt.Fprintf(w, "benchjson: ok %s: ns/op %.0f -> %.0f, allocs/op %d -> %d\n",
				b.Name, b.NsPerOp, f.NsPerOp, b.AllocsPerOp, f.AllocsPerOp)
		}
	}
	var unknown []string
	for name := range freshBy {
		if !baseNames[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	for _, name := range unknown {
		fmt.Fprintf(w, "benchjson: warn %s: not in baseline (refresh the baseline to gate it)\n", name)
	}
	return failures
}

// regression returns the percent increase of fresh over base; zero or
// negative means no regression. A zero baseline only regresses if fresh
// is nonzero (0 -> 0 is a pass; 0 -> anything is reported as 100%).
func regression(base, fresh float64) float64 {
	if fresh <= base {
		return 0
	}
	if base == 0 {
		return 100
	}
	return 100 * (fresh - base) / base
}

// parsePercent parses "25%" or "25" into 25.0.
func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid -max-regress %q (want e.g. 25%%)", s)
	}
	return v, nil
}

// procs returns the GOMAXPROCS a result line ran under: the name's "-N"
// suffix, which go test omits when it is 1.
func procs(line string) int {
	name := strings.Fields(line)[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// parseLine decodes one result line: a name, an iteration count, then
// value/unit pairs.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = int64(val)
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	return r, r.NsPerOp > 0
}
