package sim

import (
	"math/rand"
	"time"
)

// Jitter is a seeded source of small multiplicative noise. The paper reports
// each configuration as the mean of 5 runs with a standard deviation bar;
// the simulator reproduces run-to-run variance with this explicit,
// replayable source rather than hidden global randomness.
type Jitter struct {
	rng *rand.Rand
	// rel is the relative standard deviation applied by Scale, e.g. 0.01
	// for ~1% noise.
	rel float64
}

// NewJitter returns a jitter source with the given seed and relative
// standard deviation. rel <= 0 disables noise entirely (Scale returns its
// input), which keeps unit tests exact.
func NewJitter(seed int64, rel float64) *Jitter {
	return &Jitter{rng: rand.New(rand.NewSource(seed)), rel: rel}
}

// minFactor is the lower clamp every perturbation factor shares: a rare
// deep-negative normal sample can make (1 + N(0, rel)) arbitrarily small
// or negative, and a duration scaled by such a factor would be
// nonsensical. Clamping at 0.5 keeps every factor strictly positive and
// bounds the speed-up any single sample can fake at 2x. Scale and Factor
// MUST clamp identically — both go through clampFactor — so a duration
// scaled via Scale equals the same duration multiplied by Factor for the
// same draw.
const minFactor = 0.5

// clampFactor applies the shared lower bound.
func clampFactor(f float64) float64 {
	if f < minFactor {
		return minFactor
	}
	return f
}

// Scale perturbs d by a normally-distributed factor (1 + N(0, rel)),
// clamped below at minFactor (0.5). With rel <= 0 it is the identity.
func (j *Jitter) Scale(d time.Duration) time.Duration {
	if j == nil || j.rel <= 0 || d <= 0 {
		return d
	}
	return ScaleBy(d, j.Factor())
}

// ScaleBy applies a factor Factor drew to d as Scale does: Scale(d)
// equals ScaleBy(d, Factor()) for the same draw, and a non-positive d or
// a factor of 1 (noise disabled) leaves d exact. So factors drawn once
// can scale any number of durations later.
func ScaleBy(d time.Duration, f float64) time.Duration {
	if d <= 0 || f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// Factor returns one perturbation factor (1 + N(0, rel)), clamped below
// at minFactor (0.5) exactly as Scale clamps.
func (j *Jitter) Factor() float64 {
	if j == nil || j.rel <= 0 {
		return 1
	}
	return clampFactor(1 + j.rng.NormFloat64()*j.rel)
}
