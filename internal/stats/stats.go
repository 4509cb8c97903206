// Package stats provides the measurement arithmetic the paper's figures
// use: repeated-run summaries (mean ± standard deviation over 5
// repetitions) and nearest-rank quantiles.
package stats

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// Sample summarizes repeated measurements.
type Sample struct {
	Mean time.Duration
	Std  time.Duration
	N    int
}

// String renders "1.234s ±0.012s".
func (s Sample) String() string {
	return fmt.Sprintf("%v ±%v", s.Mean.Round(time.Millisecond), s.Std.Round(time.Millisecond))
}

// Summarize computes mean and (population) standard deviation.
func Summarize(runs []time.Duration) Sample {
	n := len(runs)
	if n == 0 {
		return Sample{}
	}
	var sum float64
	for _, r := range runs {
		sum += float64(r)
	}
	mean := sum / float64(n)
	var ss float64
	for _, r := range runs {
		d := float64(r) - mean
		ss += d * d
	}
	return Sample{
		Mean: time.Duration(mean),
		Std:  time.Duration(math.Sqrt(ss / float64(n))),
		N:    n,
	}
}

// Repetitions expands one deterministic measurement into jittered
// repetitions, reproducing run-to-run variance from drawn factors
// (sim.Jitter.Factor): the exact value first, so the mean stays
// anchored, then the value scaled by each factor as sim.Jitter.Scale
// scales it.
func Repetitions(exact time.Duration, factors []float64) []time.Duration {
	out := make([]time.Duration, len(factors)+1)
	out[0] = exact
	for i, f := range factors {
		out[i+1] = sim.ScaleBy(exact, f)
	}
	return out
}

// Quantile returns the q-th (0..1) value of a sorted sample using the
// nearest-rank definition: the ⌈q·n⌉-th smallest. Nearest-rank keeps
// high quantiles honest over small samples (p99 of 2 samples is the
// larger one, not the minimum). It backs the cluster simulator's
// P50/P90/P99.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
