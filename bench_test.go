// Benchmarks regenerating each of the paper's tables and figures. Run
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment sweep; with -v the
// rendered tables are logged, so a benchmark run doubles as the
// reproduction harness. Custom metrics surface the key quantitative shapes
// (speedups, overheads, crossovers) so regressions in the model are caught
// by numbers, not just by runtime.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/commbench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/nccl"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/train"
	"repro/internal/units"
)

// benchOpts uses fewer jitter repetitions than the paper's 5; the
// simulation cost per configuration is unchanged.
var benchOpts = experiments.Options{Repetitions: 3, Seed: 1}

// runExperiment executes one paper artifact b.N times, logging the tables
// from the final run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

// epoch simulates one configuration and returns epoch seconds.
func epoch(b *testing.B, model string, gpus, batch int, method kvstore.Method) float64 {
	b.Helper()
	cfg, err := train.NewConfig(model, gpus, batch, method)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := train.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.EpochTime.Seconds()
}

// BenchmarkTable1NetworkStats regenerates Table I (network descriptions).
func BenchmarkTable1NetworkStats(b *testing.B) {
	runExperiment(b, "table1")
}

// BenchmarkFig1Timeline regenerates Figure 1 (the epoch timeline summary).
func BenchmarkFig1Timeline(b *testing.B) {
	runExperiment(b, "fig1")
}

// BenchmarkFig2Topology regenerates Figure 2 (DGX-1 topology).
func BenchmarkFig2Topology(b *testing.B) {
	runExperiment(b, "fig2")
}

// BenchmarkFig3TrainingTime regenerates Figure 3 (the full 5 networks x 2
// methods x 3 batches x 4 GPU-count training-time sweep) and reports the
// paper's headline speedup shapes as custom metrics.
func BenchmarkFig3TrainingTime(b *testing.B) {
	runExperiment(b, "fig3")
	base := epoch(b, "lenet", 1, 16, kvstore.MethodP2P)
	b.ReportMetric(base/epoch(b, "lenet", 8, 16, kvstore.MethodP2P), "lenet-p2p-8gpu-speedup")
	p4 := epoch(b, "resnet", 4, 16, kvstore.MethodP2P)
	n4 := epoch(b, "resnet", 4, 16, kvstore.MethodNCCL)
	b.ReportMetric(p4/n4, "resnet-4gpu-nccl-advantage")
}

// BenchmarkTable2NCCLOverhead regenerates Table II (single-GPU NCCL
// overhead) and reports the paper's 21.8% LeNet anchor.
func BenchmarkTable2NCCLOverhead(b *testing.B) {
	runExperiment(b, "table2")
	p := epoch(b, "lenet", 1, 16, kvstore.MethodP2P)
	n := epoch(b, "lenet", 1, 16, kvstore.MethodNCCL)
	b.ReportMetric(100*(n-p)/p, "lenet-b16-overhead-%")
}

// BenchmarkFig4Breakdown regenerates Figure 4 (FP+BP vs WU decomposition).
func BenchmarkFig4Breakdown(b *testing.B) {
	runExperiment(b, "fig4")
}

// BenchmarkTable3SyncOverhead regenerates Table III (cudaStreamSynchronize
// share for LeNet).
func BenchmarkTable3SyncOverhead(b *testing.B) {
	runExperiment(b, "table3")
}

// BenchmarkTable4Memory regenerates Table IV (memory usage and the 16GB
// trainability boundary).
func BenchmarkTable4Memory(b *testing.B) {
	runExperiment(b, "table4")
}

// BenchmarkFig5WeakScaling regenerates Figure 5 (weak scaling).
func BenchmarkFig5WeakScaling(b *testing.B) {
	runExperiment(b, "fig5")
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationTensorCores quantifies the tensor-core lowering:
// ResNet-50 single-GPU epoch with and without it.
func BenchmarkAblationTensorCores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := train.NewConfig("resnet", 1, 16, kvstore.MethodP2P)
		if err != nil {
			b.Fatal(err)
		}
		cfg.TensorCores = false
		tr, err := train.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		off, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		on := epoch(b, "resnet", 1, 16, kvstore.MethodP2P)
		b.ReportMetric(off.EpochTime.Seconds()/on, "tensor-core-speedup")
	}
}

// BenchmarkAblationBPWUOverlap quantifies MXNet's BP/WU pipelining by
// comparing the exposed WU against the total communication a serialized
// schedule would expose (approximated by the sync-SGD barrier tail).
func BenchmarkAblationBPWUOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := train.NewConfig("resnet", 8, 16, kvstore.MethodNCCL)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := train.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.WUWall.Seconds()/res.EpochTime.Seconds(), "exposed-wu-%")
	}
}

// BenchmarkAblationAsyncSGD quantifies the ASGD extension against
// synchronous SGD for the communication-bound AlexNet at 4 GPUs.
func BenchmarkAblationAsyncSGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		syncT := epoch(b, "alexnet", 4, 16, kvstore.MethodP2P)
		cfg, err := train.NewConfig("alexnet", 4, 16, kvstore.MethodP2P)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Async = true
		tr, err := train.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(syncT/res.EpochTime.Seconds(), "asgd-speedup")
	}
}

// BenchmarkAblationInterconnect sweeps NVLink bandwidth (PCIe-only, 1x,
// 4x) for 8-GPU AlexNet — the paper's insight that bandwidth alone cannot
// remove the communication bottleneck, quantified.
func BenchmarkAblationInterconnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(top *topology.Topology) float64 {
			cfg, err := train.NewConfig("alexnet", 8, 16, kvstore.MethodNCCL)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Topology = top
			tr, err := train.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := tr.Run()
			if err != nil {
				b.Fatal(err)
			}
			return res.EpochTime.Seconds()
		}
		base := run(topology.DGX1())
		b.ReportMetric(run(topology.DGX1PCIeOnly())/base, "pcie-only-slowdown")
		b.ReportMetric(base/run(topology.DGX1Scaled(4)), "4x-nvlink-speedup")
	}
}

// BenchmarkAblationModelParallel compares pipelined model parallelism with
// data parallelism for the FC-heavy AlexNet (paper §I's contrast).
func BenchmarkAblationModelParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dp := epoch(b, "alexnet", 4, 64, kvstore.MethodP2P)
		cfg, err := train.NewConfig("alexnet", 4, 64, kvstore.MethodP2P)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Parallelism = train.ModelParallel
		tr, err := train.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mp, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dp/mp.EpochTime.Seconds(), "dp-over-mp")
	}
}

// BenchmarkAblationCheckpointing quantifies gradient checkpointing: the
// memory saved and the time paid for ResNet-50 at batch 32.
func BenchmarkAblationCheckpointing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := epoch(b, "resnet", 4, 32, kvstore.MethodNCCL)
		cfg, err := train.NewConfig("resnet", 4, 32, kvstore.MethodNCCL)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Checkpointing = true
		tr, err := train.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EpochTime.Seconds()/plain, "checkpoint-slowdown")
		b.ReportMetric(float64(tr.Memory().FeatureMaps)/float64(1<<30), "featmaps-GiB")
	}
}

// BenchmarkAblationWinograd quantifies the Winograd 3x3 lowering for the
// 3x3-dominated ResNet-50.
func BenchmarkAblationWinograd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := epoch(b, "resnet", 1, 32, kvstore.MethodP2P)
		cfg, err := train.NewConfig("resnet", 1, 32, kvstore.MethodP2P)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Winograd = true
		tr, err := train.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain/res.EpochTime.Seconds(), "winograd-speedup")
	}
}

// BenchmarkCommMicro is the nccl-tests analog: large-message 8-GPU
// all-reduce bus bandwidth under both methods.
func BenchmarkCommMicro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := commbench.Measure(commbench.AllReduce, kvstore.MethodNCCL, 8, 256*units.MB)
		if err != nil {
			b.Fatal(err)
		}
		p, err := commbench.Measure(commbench.AllReduce, kvstore.MethodP2P, 8, 256*units.MB)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n.BusBW)/float64(1<<30), "nccl-busbw-GB/s")
		b.ReportMetric(float64(p.BusBW)/float64(1<<30), "p2p-busbw-GB/s")
	}
}

// BenchmarkSimulatorThroughput measures the raw simulator speed (one
// Inception-v3 8-GPU configuration per iteration) — the engineering metric
// that keeps the full sweeps tractable.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		epoch(b, "inception-v3", 8, 16, kvstore.MethodNCCL)
	}
}

// BenchmarkServiceSweep tracks the serving layer's performance from day
// one: a 16-configuration /v1/sweep through the full HTTP stack, cold
// (every cell simulated) vs warm (every cell a cache hit), with 1
// worker vs NumCPU workers. Warm runs measure pure cache+serialization
// latency; the cold worker sweep measures the pool's fan-out speedup.
func BenchmarkServiceSweep(b *testing.B) {
	sweepBody, err := json.Marshal(service.SweepRequest{
		Base:    core.Workload{Images: 4096},
		Models:  []string{"lenet"},
		GPUs:    []int{1, 2, 4, 8},
		Batches: []int{16, 32},
		Methods: []core.Method{core.P2P, core.NCCL},
	})
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(b *testing.B, ts *httptest.Server) {
		b.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(sweepBody))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var sr service.SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || sr.Count != 16 {
			b.Fatalf("sweep: status %d, count %d", resp.StatusCode, sr.Count)
		}
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("cold/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				core.ResetCaches() // keep "cold" cold under the artifact layer
				svc := service.NewServer(service.Config{Workers: workers})
				ts := httptest.NewServer(svc.Handler())
				b.StartTimer()
				sweep(b, ts)
				b.StopTimer()
				ts.Close()
				svc.Close()
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("warm/workers=%d", workers), func(b *testing.B) {
			svc := service.NewServer(service.Config{Workers: workers})
			ts := httptest.NewServer(svc.Handler())
			defer func() {
				ts.Close()
				svc.Close()
			}()
			sweep(b, ts) // fill the cache outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(b, ts)
			}
			b.StopTimer()
			st := svc.CacheStats()
			b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "cache-hit-ratio")
		})
	}
}

// The three benchmarks below are the tracked baseline `make bench-json`
// snapshots into BENCH_<date>.json: the compile-once/simulate-many split
// lives or dies by the cold/warm gap (warm runs skip graph building, plan
// lowering, and the simulated window and only redo extrapolation
// arithmetic), so ns/op and allocs/op for these three are the numbers to
// watch across commits.

// benchWorkload is a mid-sized configuration: large enough that compile
// cost dominates a cold run, small enough to keep -benchtime reasonable.
var benchWorkload = core.Workload{Model: "resnet", GPUs: 4, Batch: 32, Images: 64 * 1024}

// BenchmarkCoreRunCold measures a full compile+simulate: every iteration
// drops the artifact caches first.
func BenchmarkCoreRunCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetCaches()
		if _, err := core.Run(benchWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreRunWarm measures a cache-served run: the window is
// compiled once outside the timer, then every iteration reuses it.
func BenchmarkCoreRunWarm(b *testing.B) {
	core.ResetCaches()
	if _, err := core.Run(benchWorkload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(benchWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCacheHit measures the warm /v1/simulate hit path —
// the allocation floor the preserialized byte cache buys. Every
// iteration drives the full handler stack (mux, admission, fingerprint,
// cache) via ServeHTTP on a recorder, no client or socket in the loop;
// on a hit the handler writes the cached bytes verbatim, so JSON
// marshaling must contribute zero allocs/op here. Tracked in the
// committed baseline and gated by `make bench-gate`.
func BenchmarkServiceCacheHit(b *testing.B) {
	svc := service.NewServer(service.Config{Workers: 2})
	defer svc.Close()
	h := svc.Handler()
	body, err := json.Marshal(benchWorkload)
	if err != nil {
		b.Fatal(err)
	}
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK { // prime the cache
		b.Fatalf("prime: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(); rec.Header().Get("X-Cache") != "HIT" {
		b.Fatalf("second request not a hit: X-Cache=%q", rec.Header().Get("X-Cache"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := do(); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	st := svc.CacheStats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "cache-hit-ratio")
}

// BenchmarkContractKey measures the gateway proxy layer: the routing key
// of a repeated /v1/simulate body, as the gateway computes it for every
// request it forwards (service.Contract, then the key). A repeated body
// is a hit in the body memo, so no op decodes or fingerprints.
func BenchmarkContractKey(b *testing.B) {
	body, err := json.Marshal(benchWorkload)
	if err != nil {
		b.Fatal(err)
	}
	if _, key := service.Contract("/v1/simulate"); key(body) != benchWorkload.Fingerprint() {
		b.Fatal("routing key is not the workload's fingerprint")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, key := service.Contract("/v1/simulate")
		key(body)
	}
}

// BenchmarkCoreRunMany8 measures the batch entry point on an 8-way
// dataset-size sweep sharing one compiled window (the compile-once,
// simulate-many shape sweeps hit).
func BenchmarkCoreRunMany8(b *testing.B) {
	ws := make([]core.Workload, 8)
	for i := range ws {
		ws[i] = benchWorkload
		ws[i].Images = int64(16*1024) << (i % 4)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetCaches()
		if _, err := core.RunMany(ctx, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// missWorkloads is the server-shaped cold benchmark's input cycle: model
// × GPUs × batch × communication × hardware, 2,000 distinct compile
// fingerprints, four times the 512-entry compiled-window memo, so
// cycling through them in order misses the memo on every op.
var missWorkloads = func() []core.Workload {
	comms := []struct {
		method   core.Method
		protocol string
	}{{core.P2P, ""}, {core.NCCL, "simple"}, {core.NCCL, "ll"}, {core.NCCL, "ll128"}, {core.NCCL, "auto"}}
	var ws []core.Workload
	for _, model := range []string{"lenet", "alexnet", "resnet", "googlenet", "inception-v3"} {
		for gpus := 1; gpus <= 8; gpus++ {
			for _, batch := range []int{24, 40} {
				for _, c := range comms {
					for _, hw := range []string{"dgx1", "dgx1-pascal", "dgx2", "dgx-a100", "dgx-h100"} {
						ws = append(ws, core.Workload{Model: model, GPUs: gpus, Batch: batch,
							Method: c.method, Protocol: c.protocol, Hardware: hw})
					}
				}
			}
		}
	}
	return ws
}()

// missNext is the next position in missWorkloads. It persists across the
// benchmark's rounds, so a round never starts on a window the previous
// round left in the memo.
var missNext int

// BenchmarkCoreRunMiss measures what a long-running server pays for a
// never-seen workload: every op compiles a window (it misses the
// compiled-window memo), while the model zoo, the dnn plans and the
// machine topologies stay warm from the first pass through the cycle,
// which runs untimed. BenchmarkCoreRunCold, by contrast, measures the
// process-start cost, rebuilding all of those on every op.
func BenchmarkCoreRunMiss(b *testing.B) { runMissCycle(b, missWorkloads, &missNext) }

// missVariantWorkloads is BenchmarkCoreRunMissVariants's input cycle: the
// model-parallel and hybrid schedules over four models × 2–8 GPUs × five
// batches × three machines, 840 distinct compile fingerprints, more than
// the 512-entry compiled-window memo holds.
var missVariantWorkloads = func() []core.Workload {
	var ws []core.Workload
	for _, model := range []string{"alexnet", "resnet", "googlenet", "inception-v3"} {
		for gpus := 2; gpus <= 8; gpus++ {
			for batch := 24; batch <= 56; batch += 8 {
				for _, hw := range []string{"dgx1", "dgx2", "dgx-a100"} {
					mp := core.Workload{Model: model, GPUs: gpus, Batch: batch, Method: core.NCCL, Hardware: hw}
					hy := mp
					mp.ModelParallel, hy.HybridOWT = true, true
					ws = append(ws, mp, hy)
				}
			}
		}
	}
	return ws
}()

// missVariantNext is the next position in missVariantWorkloads.
var missVariantNext int

// BenchmarkCoreRunMissVariants is BenchmarkCoreRunMiss for the schedules
// that are not data parallelism: every op compiles a never-seen
// model-parallel or hybrid window.
func BenchmarkCoreRunMissVariants(b *testing.B) {
	runMissCycle(b, missVariantWorkloads, &missVariantNext)
}

// runMissCycle runs one workload of the cycle ws per op, from position
// *next on. The first call runs the whole cycle once, untimed, so every
// cache but the compiled-window memo is warm. It reports simiters/op, the
// training iterations a compile simulated on average, and passes/op, the
// device passes a compile launched on average: counts no host moves.
func runMissCycle(b *testing.B, ws []core.Workload, next *int) {
	run := func(i int) {
		w := ws[i%len(ws)]
		if _, err := core.Run(w); err != nil {
			b.Fatalf("%+v: %v", w, err)
		}
	}
	if *next == 0 {
		for ; *next < len(ws); *next++ {
			run(*next)
		}
	}
	b.ReportAllocs()
	compiles, iters, passes := core.CompileCount(), core.SimulatedIterations(), core.LaunchedPasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(*next)
		*next++
	}
	b.StopTimer()
	if n := core.CompileCount() - compiles; n > 0 {
		b.ReportMetric(float64(core.SimulatedIterations()-iters)/float64(n), "simiters/op")
		b.ReportMetric(float64(core.LaunchedPasses()-passes)/float64(n), "passes/op")
	}
}

// missConfigs is missWorkloads lowered to trainer configurations the way
// core lowers a normalized workload (paper epoch, tensor cores, the
// workload's machine and collective protocol).
var missConfigs = func() []train.Config {
	cfgs := make([]train.Config, len(missWorkloads))
	for i, w := range missWorkloads {
		cfg, err := train.NewConfig(w.Model, w.GPUs, w.Batch, w.Method)
		if err != nil {
			panic(err)
		}
		cfg.Hardware = w.Hardware
		if cfg.NCCL.Protocol, err = nccl.ParseProtocol(w.Protocol); err != nil {
			panic(err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}()

// BenchmarkTrainNew measures trainer construction alone (train.New, the
// train.new_ms layer) over the missWorkloads cycle: what a never-seen
// workload pays before its first simulated iteration. The machine
// templates, kernel tables, plans and zoo are warm from an untimed first
// pass, as they are in a long-running server.
func BenchmarkTrainNew(b *testing.B) {
	for _, cfg := range missConfigs {
		if _, err := train.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.New(missConfigs[i%len(missConfigs)]); err != nil {
			b.Fatal(err)
		}
	}
}
