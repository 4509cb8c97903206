package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchOut builds plausible `go test -bench -benchmem` output from
// (name, ns/op, allocs/op) triples, with the usual surrounding noise.
func benchOut(lines ...string) string {
	return "goos: linux\ngoarch: amd64\npkg: repro\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n" +
		strings.Join(lines, "\n") + "\nPASS\nok  \trepro\t3.021s\n"
}

func writeBaseline(t *testing.T, b Baseline) string {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConvertParsesBenchOutput(t *testing.T) {
	in := benchOut(
		"BenchmarkCoreRunWarm-8  	  204933	      5773 ns/op	    3592 B/op	      45 allocs/op",
		"BenchmarkServiceSweep-8 	     100	  11480764 ns/op	  533298 B/op	    4632 allocs/op",
	)
	var out, errb bytes.Buffer
	if code := run([]string{"-date", "2026-08-08"}, strings.NewReader(in), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var got Baseline
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Date != "2026-08-08" || got.CPU == "" || len(got.Benchmarks) != 2 {
		t.Fatalf("baseline = %+v", got)
	}
	if got.Benchmarks[0].Name != "CoreRunWarm" || got.Benchmarks[0].NsPerOp != 5773 || got.Benchmarks[0].AllocsPerOp != 45 {
		t.Errorf("first result = %+v", got.Benchmarks[0])
	}
}

// TestConvertRecordsEnvironment pins the provenance fields: the Go
// version, and the GOMAXPROCS the benchmarks ran under (the name suffix,
// absent when it is 1).
func TestConvertRecordsEnvironment(t *testing.T) {
	for _, tc := range []struct {
		line  string
		procs int
	}{
		{"BenchmarkCoreRunWarm-8  	  204933	      5773 ns/op", 8},
		{"BenchmarkCoreRunWarm  	  204933	      5773 ns/op", 1},
	} {
		var out, errb bytes.Buffer
		if code := run(nil, strings.NewReader(benchOut(tc.line)), &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		var got Baseline
		if err := json.Unmarshal(out.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.GOMAXPROCS != tc.procs || got.Go != runtime.Version() || got.CPU == "" {
			t.Errorf("%q: go=%q cpu=%q gomaxprocs=%d, want %q, a cpu, %d",
				tc.line, got.Go, got.CPU, got.GOMAXPROCS, runtime.Version(), tc.procs)
		}
	}
}

// TestConvertEmptyInputFails pins the zero-results guard: a broken
// -bench regexp upstream of the pipe must exit non-zero with a clear
// message, not write {"benchmarks":null} and succeed.
func TestConvertEmptyInputFails(t *testing.T) {
	for _, in := range []string{"", "PASS\nok  \trepro\t0.001s\n"} {
		var out, errb bytes.Buffer
		if code := run(nil, strings.NewReader(in), &out, &errb); code == 0 {
			t.Errorf("input %q: exit 0, want non-zero", in)
		} else if !strings.Contains(errb.String(), "no benchmark lines") {
			t.Errorf("input %q: stderr %q lacks a clear message", in, errb.String())
		}
	}
}

// TestBestOfN pins -count=3 folding: duplicate lines for one benchmark
// reduce to the minimum ns/op and allocs/op, so a noisy run can only
// help the gate, never hurt it.
func TestBestOfN(t *testing.T) {
	in := benchOut(
		"BenchmarkCoreRunWarm-8  	  200000	      6100 ns/op	    3600 B/op	      47 allocs/op",
		"BenchmarkCoreRunWarm-8  	  210000	      5500 ns/op	    3592 B/op	      45 allocs/op",
		"BenchmarkCoreRunWarm-8  	  205000	      5900 ns/op	    3595 B/op	      46 allocs/op",
	)
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader(in), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var got Baseline
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 {
		t.Fatalf("folded to %d results, want 1", len(got.Benchmarks))
	}
	r := got.Benchmarks[0]
	if r.NsPerOp != 5500 || r.AllocsPerOp != 45 || r.BytesPerOp != 3592 {
		t.Errorf("best-of-3 = %+v, want ns/op 5500, allocs 45, bytes 3592", r)
	}
}

// TestGateVerdicts is the satellite's table: each case feeds a fresh
// run against a baseline through the full CLI and checks the exit code
// and the diagnostic naming the benchmark.
func TestGateVerdicts(t *testing.T) {
	base := Baseline{Benchmarks: []Result{
		{Name: "CoreRunWarm", NsPerOp: 5000, AllocsPerOp: 40},
	}}
	cases := []struct {
		name     string
		fresh    []string
		regress  string
		wantCode int
		wantMsg  string
	}{
		{
			name:     "improvement passes",
			fresh:    []string{"BenchmarkCoreRunWarm-8  	  300000	      4000 ns/op	    3000 B/op	      30 allocs/op"},
			regress:  "10%",
			wantCode: 0,
			wantMsg:  "ok CoreRunWarm",
		},
		{
			name:     "within threshold passes",
			fresh:    []string{"BenchmarkCoreRunWarm-8  	  300000	      5400 ns/op	    3000 B/op	      43 allocs/op"},
			regress:  "10%",
			wantCode: 0,
			wantMsg:  "ok CoreRunWarm",
		},
		{
			name:     "ns/op regression beyond threshold fails naming the benchmark",
			fresh:    []string{"BenchmarkCoreRunWarm-8  	  300000	      6000 ns/op	    3000 B/op	      40 allocs/op"},
			regress:  "10%",
			wantCode: 1,
			wantMsg:  "FAIL CoreRunWarm: ns/op",
		},
		{
			name:     "allocs/op regression beyond threshold fails naming the benchmark",
			fresh:    []string{"BenchmarkCoreRunWarm-8  	  300000	      5000 ns/op	    3000 B/op	      60 allocs/op"},
			regress:  "10%",
			wantCode: 1,
			wantMsg:  "FAIL CoreRunWarm: allocs/op",
		},
		{
			name:     "baseline benchmark missing from fresh output fails",
			fresh:    []string{"BenchmarkSomethingElse-8  	  300000	      100 ns/op	    0 B/op	      0 allocs/op"},
			regress:  "10%",
			wantCode: 1,
			wantMsg:  "FAIL CoreRunWarm: present in baseline but missing",
		},
		{
			name: "new benchmark absent from baseline passes with warning",
			fresh: []string{
				"BenchmarkCoreRunWarm-8  	  300000	      5000 ns/op	    3000 B/op	      40 allocs/op",
				"BenchmarkServiceCacheHit-8  	 1000000	      1500 ns/op	    700 B/op	      9 allocs/op",
			},
			regress:  "10%",
			wantCode: 0,
			wantMsg:  "warn ServiceCacheHit: not in baseline",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBaseline(t, base)
			var out, errb bytes.Buffer
			code := run([]string{"-diff", path, "-max-regress", tc.regress},
				strings.NewReader(benchOut(tc.fresh...)), &out, &errb)
			if code != tc.wantCode {
				t.Errorf("exit %d, want %d; stderr: %s", code, tc.wantCode, errb.String())
			}
			if !strings.Contains(errb.String(), tc.wantMsg) {
				t.Errorf("stderr %q does not contain %q", errb.String(), tc.wantMsg)
			}
			// The fresh JSON must reach stdout in gate mode regardless of the
			// verdict — CI uploads it as the run's artifact.
			var got Baseline
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Errorf("gate mode stdout is not a baseline: %v", err)
			}
		})
	}
}

// TestGateEmptyFreshFails pins that gate mode shares the zero-results
// guard: an empty fresh run must fail, not vacuously pass.
func TestGateEmptyFreshFails(t *testing.T) {
	path := writeBaseline(t, Baseline{Benchmarks: []Result{{Name: "CoreRunWarm", NsPerOp: 5000}}})
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", path}, strings.NewReader("PASS\n"), &out, &errb); code == 0 {
		t.Fatal("empty fresh run passed the gate")
	}
	if !strings.Contains(errb.String(), "no benchmark lines") {
		t.Errorf("stderr %q lacks the zero-results message", errb.String())
	}
}

func TestGateBadFlags(t *testing.T) {
	path := writeBaseline(t, Baseline{Benchmarks: []Result{{Name: "X", NsPerOp: 1}}})
	in := benchOut("BenchmarkX-8  	  1000	      1 ns/op	    0 B/op	      0 allocs/op")
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", path, "-max-regress", "abc"},
		strings.NewReader(in), &out, &errb); code == 0 {
		t.Error("invalid -max-regress accepted")
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-diff", filepath.Join(t.TempDir(), "missing.json")},
		strings.NewReader(in), &out, &errb); code == 0 {
		t.Error("missing baseline file accepted")
	}
}

func TestParsePercent(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"25%", 25, true}, {"25", 25, true}, {" 10% ", 10, true},
		{"0%", 0, true}, {"-5%", 0, false}, {"pct", 0, false},
	} {
		got, err := parsePercent(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parsePercent(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
