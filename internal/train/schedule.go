package train

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// option is a Config option whose meaning depends on the schedule.
type option int

const (
	optMethod option = iota
	optMicroBatches
	optCheckpointing
	optBuckets // BucketBytes
	optWinograd
	optTensorCores
	optProtocol // NCCL.Protocol
	optTree     // NCCL.Algorithm
	optFaults
	optTrace // DetailIntervals
	numOptions
)

// Why an accepted option moves no output byte under a schedule.
const (
	whyPeerCopies = "stages exchange activations by peer copies and run no collective"
	// whyNotNCCL holds under every method but nccl.
	whyNotNCCL  = "only the nccl method runs collectives"
	whyTimeline = "retained intervals feed timeline export; no time or aggregate reads them"
)

// capability is one schedule's row of the capability table.
type capability struct {
	// async and parallelism spell the schedule in a Config; runs names
	// it in "… only to <runs> runs, not <runs>", title in "<title>
	// requires …" and "<title> needs …".
	async       bool
	parallelism Parallelism
	runs, title string
	// method is the one method the schedule accepts, or "" for any.
	method  Method
	minGPUs int
	// rejects lists the options the schedule does not simulate, in the
	// order they are checked; they must stay unset.
	rejects []option
	// neutral[o] says why accepted option o moves no output byte under
	// the schedule; it is empty when the option moves some.
	neutral [numOptions]string
}

// schedules is the capability table: what each schedule simulates.
// train.New and core.Validate both check a configuration against its row
// (Config.CheckSchedule), and TestScheduleTable checks every mark.
var schedules = [...]capability{{
	runs: "synchronous data-parallel", title: "synchronous data parallelism", minGPUs: 1,
	rejects: []option{optMicroBatches},
	neutral: [numOptions]string{optProtocol: whyNotNCCL, optTree: whyNotNCCL, optTrace: whyTimeline},
}, {
	// Workers run plain passes and push each array on its own.
	async: true, runs: "async SGD", title: "async SGD", method: MethodP2P, minGPUs: 1,
	rejects: []option{optMicroBatches, optCheckpointing, optBuckets},
	neutral: [numOptions]string{optProtocol: whyNotNCCL, optTree: whyNotNCCL, optTrace: whyTimeline},
}, {
	// Stages update their own layers: no recompute pass, no exchange.
	parallelism: ModelParallel, runs: "model-parallel", title: "model parallelism", minGPUs: 1,
	rejects: []option{optCheckpointing, optBuckets},
	neutral: [numOptions]string{optMethod: whyPeerCopies, optProtocol: whyPeerCopies, optTree: whyPeerCopies, optTrace: whyTimeline},
}, {
	// The head's activation collectives run on NCCL.
	parallelism: HybridOWT, runs: "hybrid-owt", title: "hybrid parallelism", method: MethodNCCL, minGPUs: 2,
	rejects: []option{optMicroBatches, optCheckpointing, optBuckets},
	neutral: [numOptions]string{optTrace: whyTimeline},
}}

// CheckSchedule checks c against its schedule's row of the capability
// table, async SGD's whenever Async is set: the schedule must accept the
// method (and for async SGD, the parallelism), the GPU count and every
// option c sets. The error has no package prefix, for the caller to add.
// A zero Method counts as nccl.
func (c *Config) CheckSchedule() error {
	var s *capability
	for i := range schedules {
		if r := &schedules[i]; r.async == c.Async && (c.Async || r.parallelism == c.Parallelism) {
			s = r
			break
		}
	}
	if s == nil {
		return fmt.Errorf("unknown parallelism %d", c.Parallelism)
	}
	m := c.Method
	if m == "" {
		m = MethodNCCL
	}
	if s.method != "" && m != s.method {
		return fmt.Errorf("%s requires the %s method, got %q", s.title, s.method, m)
	}
	if s.parallelism != c.Parallelism {
		return errors.New("async SGD supports only data parallelism")
	}
	if c.GPUs < s.minGPUs {
		return fmt.Errorf("%s needs at least %d GPUs", s.title, s.minGPUs)
	}
	if c.MicroBatches < 0 {
		return fmt.Errorf("micro-batch count %d must not be negative", c.MicroBatches)
	}
	for _, o := range s.rejects {
		if set, phrase := c.uses(o); set {
			var accepting []string
			for i := range schedules {
				if schedules[i].accepts(o) {
					accepting = append(accepting, schedules[i].runs)
				}
			}
			return fmt.Errorf("%s only to %s runs, not %s", phrase, strings.Join(accepting, " or "), s.runs)
		}
	}
	return nil
}

// uses reports whether c sets option o, one some schedule rejects, and
// how the rejection names it.
func (c *Config) uses(o option) (bool, string) {
	switch o {
	case optMicroBatches:
		return c.MicroBatches > 0, "micro-batches apply"
	case optCheckpointing:
		return c.Checkpointing, "checkpointing applies"
	case optBuckets:
		return c.BucketBytes > 0, "gradient buckets apply"
	}
	return false, ""
}

// accepts reports whether the schedule takes option o.
func (s *capability) accepts(o option) bool { return !slices.Contains(s.rejects, o) }
