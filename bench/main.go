// Command bench is dgxsim's end-to-end benchmark. It drives four seeded
// workloads through the program's public surfaces — the experiments
// package, the HTTP service in process, and real dgxsimd/dgxsimgw
// processes — measures each closed-loop for a fixed time, checks every
// output, and prints each metric by name with its unit. BENCHMARK.json at
// the repository root defines the workloads, the metrics and their
// regression bounds; bench/README.md explains them.
//
// Run it from the repository root through its wrapper, which keeps every
// build artifact under .bench_build/:
//
//	bash bench/run.sh --workload hot --seed 1            # one workload, untraced
//	bash bench/run.sh --workload miss --seed 1 --trace 1 # per-layer metrics + Chrome trace
//	bash bench/run.sh --seed 1 -out base.json            # every workload, one process each
//	bash bench/run.sh -compare 'base*.json' 'head*.json' # medians and quartiles, bounds flagged
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the benchmark's definition.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(root string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload run as stored in a results file.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Samples is the sample count behind each latency and set-up time;
	// TailQuantile the percentile reported as latency_tail_ms.
	Samples      map[string]int `json:"samples,omitempty"`
	TailQuantile float64        `json:"tailQuantile,omitempty"`
	// Ops is the number of measured ops that succeeded.
	Ops int `json:"ops"`
	result
	// measured names every metric the run computed, reported or not.
	measured []string
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env  envStamp `json:"env"`
	Runs []run    `json:"runs"`
}

// options configure one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	traceOut string
	root     string
	bin      string

	// Tests cut runs short: maxOps caps the measured ops (below what the
	// tail percentile needs, which then reports the slowest op) and
	// setups replaces the set-up repetitions.
	maxOps int
	setups int
}

// setupRounds is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupRounds = 5

func main() {
	if os.Getenv(referenceEnv) == "1" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (empty: every workload, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 0, "seconds each measured phase runs (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics and writing a Chrome trace")
	flag.StringVar(&o.out, "out", "", "also write the results, with an environment stamp, to this JSON file")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", "", "directory the daemons are built into (default <root>/.bench_build/bin)")
	flag.BoolVar(&compare, "compare", false, "compare two sets of result files: -compare 'A*.json' 'B*.json'")
	flag.Parse()

	def, err := loadBenchmark(o.root)
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two file sets"))
		}
		ok, err := compareRuns(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.seconds <= 0 {
		o.seconds = def.RunSeconds
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", o.trace))
	}
	if o.bin == "" {
		o.bin = filepath.Join(o.root, ".bench_build", "bin")
	}
	if o.workload == "" {
		if !runAll(o) {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fatal(err)
	}
	r, err := runWorkload(w, def, o)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	printRun(r)
	if o.out != "" {
		if err := writeResults(o.out, resultsFile{Env: stamp(o.root, o.seed, o.seconds), Runs: []run{r}}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload sets a workload up, measures it and checks its outputs.
// Untraced, it reports the end-to-end metrics; traced, it measures an
// untraced and a traced half of the run and reports the per-layer
// metrics, including the tracing overhead between the two halves.
func runWorkload(w workload, def benchmarkFile, o options) (run, error) {
	e := &runEnv{root: o.root, bin: o.bin}
	r := run{Workload: w.name, Seed: o.seed, Trace: o.trace == 1, Samples: map[string]int{}}
	if w.needsDaemons {
		if err := e.buildDaemons(); err != nil {
			return r, err
		}
	}
	maxOps := w.maxOps
	if o.maxOps > 0 {
		maxOps = min(maxOps, o.maxOps)
	}
	ref, err := startReference()
	if err != nil {
		return r, err
	}
	defer ref.stop()
	rounds := setupRounds
	if o.setups > 0 || o.trace == 1 {
		rounds = max(o.setups, 1)
	}
	var t target
	var setups []float64
	for i := 0; i < rounds; i++ {
		if t != nil {
			t.close()
		}
		// Every set-up starts cold, from a collected heap: the
		// compiled-window cache and the model zoo are process-wide.
		core.ResetCaches()
		runtime.GC()
		if _, err := ref.sample(); err != nil {
			return r, err
		}
		start := time.Now()
		if t, err = w.setup(o.seed, e); err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	runtime.GC()

	ck := newChecker(o.seed)
	var m map[string]float64
	var ph phase
	if o.trace == 0 {
		m, ph, err = endToEnd(w, t, ref, ck, setups, maxOps, o)
	} else {
		m, ph, err = perLayer(w, t, ref, ck, maxOps, o)
	}
	if err != nil {
		return r, err
	}
	for _, err := range ph.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}
	r.Ops = ph.ops
	if o.trace == 0 {
		r.Samples["latency_p50_ms"], r.Samples["latency_tail_ms"], r.Samples["setup_s"] = ph.ops, ph.ops, len(setups)
		r.TailQuantile = w.tail
	}

	defs := def.EndToEnd
	if o.trace == 1 {
		defs = def.PerLayer
	}
	r.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && o.trace == 0 {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		// A per-layer metric a workload never reaches reads 0.
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
		r.measured = append(r.measured, name)
	}
	r.Attempted = ph.ops + ph.failed + ck.attempted
	r.Failed = ph.failed + ck.failed
	r.Correct = r.Failed == 0
	return r, nil
}

// endToEnd measures the untraced run: the end-to-end metrics, every time
// scaled to the reference speed (reference.go).
func endToEnd(w workload, t target, ref *reference, ck *checker, setups []float64, maxOps int, o options) (map[string]float64, phase, error) {
	ph, err := measure(t, ref, w.clients, 0, time.Duration(o.seconds)*time.Second, minSamples(w.tail), maxOps, nil)
	if err != nil {
		return nil, ph, err
	}
	rss := peakRSS(t.pids())
	if ph.ops == 0 {
		return nil, ph, fmt.Errorf("no op succeeded: %v", ph.errs)
	}
	tail, err := quantile(ph.lat, w.tail)
	if err != nil && o.maxOps == 0 {
		return nil, ph, err
	} else if err != nil {
		tail = ph.lat[len(ph.lat)-1]
	}
	p50, _ := quantile(ph.lat, 0.5)
	t.check(ck)
	mape, err := anchorMAPE()
	if err != nil {
		return nil, ph, err
	}
	f := mean(ref.factors)
	return map[string]float64{
		"throughput_per_s": ph.throughput() / f,
		"latency_p50_ms":   1e3 * p50 * f,
		"latency_tail_ms":  1e3 * tail * f,
		"cpu_ms_per_op":    1e3 * ph.cpu.Seconds() * f / float64(ph.ops),
		"peak_rss_mb":      rss,
		"setup_s":          median(setups) * f,
		"anchor_mape_pct":  mape,
	}, ph, nil
}

// perLayer measures the traced run: an untraced half, a traced half
// between two scrapes of the program's counters, then the layer probes.
// The phase it returns covers both halves.
func perLayer(w workload, t target, ref *reference, ck *checker, maxOps int, o options) (map[string]float64, phase, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	plain, err := measure(t, ref, w.clients, 0, half, 1, maxOps/2, nil)
	if err != nil {
		return nil, plain, err
	}
	tr := newTracer()
	before, err := t.counters()
	if err != nil {
		return nil, plain, err
	}
	ph, err := measure(t, ref, w.clients, plain.ops+plain.failed, half, 1, maxOps/2, tr)
	if err != nil {
		return nil, ph, err
	}
	after, err := t.counters()
	if err != nil {
		return nil, ph, err
	}
	if plain.ops == 0 || ph.ops == 0 {
		return nil, ph, fmt.Errorf("no op succeeded: %v %v", plain.errs, ph.errs)
	}
	t.check(ck)
	m, err := t.layers(before, after, ph, tr)
	if err != nil {
		return nil, ph, err
	}
	pm, err := probes(tr, o.seed)
	if err != nil {
		return nil, ph, err
	}
	for k, v := range pm {
		m[k] = v
	}
	m["trace_overhead_pct"] = 100 * (1 - ph.throughput()/ph.factor/(plain.throughput()/plain.factor))
	path := o.traceOut
	if path == "" {
		path = filepath.Join(o.root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	}
	env := stamp(o.root, o.seed, o.seconds)
	env.Ops = plain.ops + ph.ops
	if err := tr.write(path, env); err != nil {
		return nil, ph, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: trace written to %s\n", w.name, path)
	ph.ops += plain.ops
	ph.failed += plain.failed
	ph.errs = append(plain.errs, ph.errs...)
	return m, ph, nil
}

// printRun prints "workload metric value unit" lines, with the sample
// count behind latencies.
func printRun(r run) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%s %s %v %s", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf(" n=%d", c)
			if n == "latency_tail_ms" {
				line += fmt.Sprintf(" q=%g", r.TailQuantile)
			}
		}
		fmt.Println(line)
	}
}

// runAll runs every workload in a fresh process of its own, so memory and
// process-wide caches never carry over from one workload to the next.
func runAll(o options) bool {
	ok := true
	all := resultsFile{Env: stamp(o.root, o.seed, o.seconds)}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp("", "bench-runs-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	for _, w := range workloads() {
		out := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace),
			"-root", o.root, "-bin", o.bin, "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			ok = false
		}
		var rf resultsFile
		if raw, err := os.ReadFile(out); err == nil && json.Unmarshal(raw, &rf) == nil {
			all.Runs = append(all.Runs, rf.Runs...)
		}
	}
	if o.out != "" {
		if err := writeResults(o.out, all); err != nil {
			fatal(err)
		}
	}
	return ok
}

func writeResults(path string, rf resultsFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
