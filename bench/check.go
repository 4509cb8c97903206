package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
)

// checker counts output checks and reports failures on stderr.
type checker struct {
	attempted, failed int
	// want holds the golden digests per workload (seed 1 only); nil means
	// this seed checks self-consistency alone.
	want map[string][]string
	// got collects the digests computed by this run, per workload.
	got map[string][]string
}

func newChecker(seed int64) *checker {
	ck := &checker{got: map[string][]string{}}
	if seed == goldenSeed {
		ck.want = goldens
	}
	return ck
}

// expect counts one check and logs it when it fails.
func (ck *checker) expect(ok bool, format string, args ...any) bool {
	ck.attempted++
	if !ok {
		ck.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
	return ok
}

// golden records digest i of a workload and, at the golden seed, holds it
// to the committed value. It reports false on a mismatch, naming the
// first differing key.
func (ck *checker) golden(workload string, i int, digest, key string) bool {
	ck.got[workload] = append(ck.got[workload], digest)
	if ck.want == nil {
		return true
	}
	want := ck.want[workload]
	return ck.expect(i < len(want) && want[i] == digest,
		"%s: digest %d is %s, golden says %s; first differing key: %s", workload, i, digest, at(want, i), key)
}

func at(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return "nothing"
}

// goldenSeed is the seed whose outputs are committed in testdata.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens maps a workload to its seed-1 digests: the paper tables' SHA-256,
// and for each service workload the body digests of its 64 checked keys.
var goldens = func() map[string][]string {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("testdata/golden.json: %v", err))
	}
	return g
}()

// anchor is one number the paper quotes, next to the simulator's value
// for it. All thirteen are listed in EXPERIMENTS.md.
type anchor struct {
	name     string
	paper    float64
	measured func() (float64, error)
}

func epoch(model string, gpus, batch int, m core.Method) (float64, error) {
	r, err := core.Run(core.Workload{Model: model, GPUs: gpus, Batch: batch, Method: m})
	if err != nil {
		return 0, err
	}
	return r.EpochTime.Seconds(), nil
}

// ratio is epoch(a)/epoch(b), a speedup of b over a.
func ratio(a, b func() (float64, error)) func() (float64, error) {
	return func() (float64, error) {
		x, err := a()
		if err != nil {
			return 0, err
		}
		y, err := b()
		if err != nil {
			return 0, err
		}
		return x / y, nil
	}
}

func ep(model string, gpus, batch int, m core.Method) func() (float64, error) {
	return func() (float64, error) { return epoch(model, gpus, batch, m) }
}

func anchors() []anchor {
	var as []anchor
	for _, g := range []struct {
		gpus      int
		p2p, nccl float64
	}{{2, 1.62, 1.56}, {4, 2.37, 2.27}, {8, 3.36, 2.77}} {
		as = append(as,
			anchor{fmt.Sprintf("lenet b16 p2p speedup %d GPUs", g.gpus), g.p2p,
				ratio(ep("lenet", 1, 16, core.P2P), ep("lenet", g.gpus, 16, core.P2P))},
			anchor{fmt.Sprintf("lenet b16 nccl speedup %d GPUs", g.gpus), g.nccl,
				ratio(ep("lenet", 1, 16, core.NCCL), ep("lenet", g.gpus, 16, core.NCCL))})
	}
	as = append(as,
		anchor{"lenet 4-GPU p2p b16->b32", 1.92, ratio(ep("lenet", 4, 16, core.P2P), ep("lenet", 4, 32, core.P2P))},
		anchor{"lenet 4-GPU p2p b16->b64", 3.67, ratio(ep("lenet", 4, 16, core.P2P), ep("lenet", 4, 64, core.P2P))},
		anchor{"table II lenet b16 nccl overhead %", 21.8, func() (float64, error) {
			r, err := ratio(ep("lenet", 1, 16, core.NCCL), ep("lenet", 1, 16, core.P2P))()
			return 100 * (r - 1), err
		}},
		anchor{"lenet compute utilization %", 18.3, func() (float64, error) {
			r, err := core.Run(core.Workload{Model: "lenet", GPUs: 1, Batch: 16})
			if err != nil {
				return 0, err
			}
			return 100 * r.ComputeUtilization, nil
		}},
		anchor{"alexnet b64 GPU0 memory GB", 2.37, memGiB("alexnet")},
		anchor{"inception-v3 b64 GPU0 memory GB", 11, memGiB("inception-v3")},
		anchor{"resnet b16 4-GPU nccl over p2p", 1.1, ratio(ep("resnet", 4, 16, core.P2P), ep("resnet", 4, 16, core.NCCL))},
	)
	return as
}

func memGiB(model string) func() (float64, error) {
	return func() (float64, error) {
		e, err := core.EstimateMemory(model, 64, true)
		return e.Root().GiB(), err
	}
}

// anchorMAPE is the mean absolute percentage error of the simulator
// against the paper's anchors.
func anchorMAPE() (float64, error) {
	as := anchors()
	paper, measured := make([]float64, len(as)), make([]float64, len(as))
	for i, a := range as {
		v, err := a.measured()
		if err != nil {
			return 0, fmt.Errorf("anchor %q: %w", a.name, err)
		}
		paper[i], measured[i] = a.paper, v
	}
	return mape(paper, measured), nil
}

func mape(paper, measured []float64) float64 {
	sum := 0.0
	for i := range paper {
		sum += math.Abs(measured[i]-paper[i]) / math.Abs(paper[i])
	}
	return 100 * sum / float64(len(paper))
}
