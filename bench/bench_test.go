package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this tree")

// TestMain lets the test binary serve as the reference-load child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(referenceEnv) == "1" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	flag.Parse()
	os.Exit(m.Run())
}

func TestQuantileNearestRankAndTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{1, 0.5, 1, true},
		{4, 0.5, 2, true},
		{0, 0.5, 0, false},
	} {
		got, err := quantile(xs[:c.n], c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("quantile(n=%d, %g) = %v, %v; want %v, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
	if minSamples(0.99) != 1000 || minSamples(0.9) != 100 || minSamples(0.5) != 1 {
		t.Errorf("minSamples = %d %d %d", minSamples(0.99), minSamples(0.9), minSamples(0.5))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := newInputs(7, "replicas"), newInputs(7, "replicas")
	for i := 0; i < 2000; i++ {
		ra, rb := replicaRequest(a, i), replicaRequest(b, i)
		if !bytes.Equal(ra.body, rb.body) || ra.ndjson != rb.ndjson {
			t.Fatalf("op %d differs between two generators of one seed", i)
		}
	}
	if bytes.Equal(simulateRequest(newInputs(1, "miss"), 0).body, simulateRequest(newInputs(2, "miss"), 0).body) {
		t.Error("seeds 1 and 2 generate the same first miss body")
	}
}

func TestGeneratedBodiesAreValidAndMissBodiesDistinct(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		in := newInputs(seed, "miss")
		seen := map[string]bool{}
		variants := 0
		for k := 0; k < 8000; k++ {
			w := in.workload(k)
			if err := w.Validate(); err != nil {
				t.Fatalf("seed %d key %d: %v", seed, k, err)
			}
			fp := w.Fingerprint()
			if seen[fp] {
				t.Fatalf("seed %d key %d repeats an earlier body", seed, k)
			}
			seen[fp] = true
			if w.Async || w.ModelParallel || w.HybridOWT {
				variants++
			}
		}
		if share := float64(variants) / 8000; share < 0.10 || share > 0.15 {
			t.Errorf("seed %d: %.3f of bodies use a non-sync schedule, want about 0.13", seed, share)
		}
		rin := newInputs(seed, "replicas")
		for i := 0; i < 4000; i++ {
			req := replicaRequest(rin, i)
			if req.cells == 0 {
				continue
			}
			var sr service.SweepRequest
			if err := json.Unmarshal(req.body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Size() != 8 {
				t.Fatalf("sweep %d has %d cells", i, sr.Size())
			}
			for c := 0; c < sr.Size(); c++ {
				if err := sr.Cell(c).Validate(); err != nil {
					t.Fatalf("sweep %d cell %d: %v", i, c, err)
				}
			}
		}
	}
}

func TestMAPE(t *testing.T) {
	got := mape([]float64{2, 4, 10}, []float64{1, 5, 10})
	if want := 100 * (0.5 + 0.25 + 0) / 3; math.Abs(got-want) > 1e-12 {
		t.Errorf("mape = %v, want %v", got, want)
	}
	if len(anchors()) != 13 {
		t.Errorf("%d anchors, EXPERIMENTS.md quotes 13", len(anchors()))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestBenchmarkFileMatchesCode(t *testing.T) {
	def, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads() {
		code = append(code, w.name)
	}
	if !equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, code)
	}
	for _, d := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not printable as one field", n)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload traced, and miss untraced too, with the
// op count cut short. The run path is shared by the workloads, so one
// untraced run covers it. Seed 1 holds every output to the golden file,
// and together the traced runs must measure every per-layer metric
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	def, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 1, root: "..", bin: t.TempDir(), setups: 1, traceOut: t.TempDir() + "/trace.json"}
	measured := map[string]bool{}
	for _, w := range workloads() {
		o.maxOps = 50
		if w.name == "paper" {
			o.maxOps = 2
		}
		modes := []int{1}
		if w.name == "miss" {
			modes = []int{0, 1}
		}
		for _, trace := range modes {
			o.trace = trace
			r, err := runWorkload(w, def, o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			for _, n := range r.measured {
				measured[n] = true
			}
		}
	}
	for _, d := range def.PerLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
	if _, err := os.Stat(o.traceOut); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}
}

// TestUpdateGolden rewrites testdata/golden.json from seed 1's outputs,
// served by an in-process server, when run with -update. Every benchmark
// run at seed 1, TestSmoke's included, holds its outputs to that file.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden.json")
	}
	ck := newChecker(goldenSeed)
	ck.want = nil
	d, err := paperPass(goldenSeed, nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ck.golden("paper", 0, d, "the rendered tables")
	miss, err := setupMiss(goldenSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := setupHot(goldenSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	replicas := newServiceTarget("replicas", goldenSeed)
	replicas.inProcess()
	for _, tg := range []target{miss, hot, replicas} {
		tg.check(ck)
		tg.close()
	}
	core.ResetCaches()
	if ck.failed > 0 {
		t.Fatalf("%d of %d checks failed", ck.failed, ck.attempted)
	}
	b, err := json.MarshalIndent(ck.got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
