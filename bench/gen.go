package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/service"
)

// The input space every service workload draws from: model × GPUs 1–8 ×
// batch 16–63 × communication (p2p, or nccl with one of four protocols) ×
// hardware. The lists are spelled out rather than read from the zoo or
// the machine registry, so a later commit that adds a model or a machine
// still receives byte-identical inputs.
var (
	spaceModels   = []string{"lenet", "alexnet", "resnet", "googlenet", "inception-v3"}
	spaceHardware = []string{"dgx1", "dgx1-pascal", "dgx2", "dgx-a100", "dgx-h100"}
	spaceComms    = []struct {
		method   core.Method
		protocol string
	}{{core.P2P, ""}, {core.NCCL, "simple"}, {core.NCCL, "ll"}, {core.NCCL, "ll128"}, {core.NCCL, "auto"}}
)

const (
	minBatch   = 16
	numBatches = 48 // 16..63: every zoo model trains at these sizes on every machine
	maxGPUs    = 8
	spaceSize  = 5 * maxGPUs * numBatches * 5 * 5

	// variantShare of generated workloads run a schedule other than sync
	// data parallelism: async SGD (p2p), model parallelism or hybrid OWT
	// (nccl, at least 2 GPUs). Those schedules never compile a cacheable
	// window, so they cost a full simulation on every miss.
	variantShare = 0.15
)

// Salts keep the per-op random streams of one seed independent.
const (
	saltVariant uint64 = iota + 1
	saltZipf
	saltMix
	saltSweep
)

// mix is splitmix64 over (seed, i, salt): a per-index random stream, so
// op i's input is a pure function of the seed and i, whatever order the
// closed-loop clients claim ops in.
func mix(seed int64, i int, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xD1B54A32D192ED03 ^ salt*0x8CB92BA72F3D8DD7
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps mix onto [0, 1).
func unit(seed int64, i int, salt uint64) float64 {
	return float64(mix(seed, i, salt)>>11) / (1 << 53)
}

// inputs is one workload's seeded view of the input space: a permutation
// of it, so taking positions 0, 1, 2, ... draws workloads without
// replacement.
type inputs struct {
	seed int64
	perm []int
}

// newInputs derives the permutation from the seed and the workload name,
// so the workloads of one seed draw independent key sets.
func newInputs(seed int64, workload string) *inputs {
	h := fnv.New64a()
	h.Write([]byte(workload))
	src := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	return &inputs{seed: seed, perm: src.Perm(spaceSize)}
}

// workload returns the workload at permutation position k.
func (in *inputs) workload(k int) core.Workload {
	idx := in.perm[k]
	c := idx % len(spaceComms)
	idx /= len(spaceComms)
	hw := idx % len(spaceHardware)
	idx /= len(spaceHardware)
	b := idx % numBatches
	idx /= numBatches
	g := idx % maxGPUs
	m := idx / maxGPUs
	w := core.Workload{
		Model:    spaceModels[m],
		GPUs:     g + 1,
		Batch:    minBatch + b,
		Method:   spaceComms[c].method,
		Protocol: spaceComms[c].protocol,
		Hardware: spaceHardware[hw],
	}
	if u := unit(in.seed, in.perm[k], saltVariant); u < variantShare {
		switch {
		case w.Method == core.P2P:
			w.Async = true
		case w.GPUs >= 2 && u < variantShare/2:
			w.ModelParallel = true
		case w.GPUs >= 2:
			w.HybridOWT = true
		}
	}
	return w
}

// request is one generated HTTP request.
type request struct {
	path   string
	body   []byte
	key    int  // permutation position of a simulate body (byte-identity bookkeeping)
	cells  int  // grid size of a sweep; 0 for a simulate
	ndjson bool // stream the sweep as NDJSON
}

func simulateRequest(in *inputs, k int) request {
	return request{path: "/v1/simulate", body: mustJSON(in.workload(k)), key: k}
}

// sweepImages is the sweep's extrapolation-only axis.
var sweepImages = []int64{32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}

// sweepRequest builds an 8-cell sweep around the never-seen base at
// position k: 4 images × 2 methods. Half the bases run a non-sync
// schedule; async (p2p only) and hybrid (nccl only) bases sweep two
// batch sizes instead of the two methods.
func sweepRequest(in *inputs, k, i int) request {
	base := in.workload(k)
	base.Async, base.ModelParallel, base.HybridOWT = false, false, false
	u := unit(in.seed, i, saltSweep)
	sr := service.SweepRequest{Base: base, Images: sweepImages, Methods: []core.Method{core.P2P, core.NCCL}}
	other := base.Batch + 1
	if other >= minBatch+numBatches {
		other = base.Batch - 1
	}
	switch {
	case u < 0.5: // sync data parallelism
	case u < 0.6:
		sr.Base.Method, sr.Base.Async = core.P2P, true
		sr.Methods, sr.Batches = nil, []int{base.Batch, other}
	case u < 0.8 && base.GPUs >= 2:
		sr.Base.Method, sr.Base.HybridOWT = core.NCCL, true
		sr.Methods, sr.Batches = nil, []int{base.Batch, other}
	default:
		sr.Base.ModelParallel = true
	}
	return request{path: "/v1/sweep", body: mustJSON(sr), cells: sr.Size(), ndjson: mix(in.seed, i, saltSweep)&1 == 1}
}

// zipf samples ranks 0..n-1 with P(k) ∝ (k+1)^-s by inverting its CDF.
type zipf []float64

func newZipf(n int, s float64) zipf {
	cdf := make(zipf, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

func (z zipf) rank(u float64) int { return sort.SearchFloat64s(z, u) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated values are plain structs
	}
	return b
}
