package train

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/nccl"
	"repro/internal/units"
)

// optionNames names the options in failure messages.
var optionNames = [numOptions]string{"Method", "MicroBatches", "Checkpointing", "BucketBytes",
	"Winograd", "TensorCores", "NCCL.Protocol", "NCCL.Algorithm", "Faults", "DetailIntervals"}

// methodsOf lists the methods a schedule accepts.
func methodsOf(s *capability) []Method {
	if s.method != "" {
		return []Method{s.method}
	}
	return []Method{MethodP2P, MethodNCCL, MethodLocal}
}

// flips lists the ways to set option o away from a base configuration
// whose method is m: the other methods, or the option's other values.
func flips(s *capability, o option, m Method) []func(*Config) {
	switch o {
	case optMethod:
		var fs []func(*Config)
		for _, other := range methodsOf(s) {
			if other != m {
				fs = append(fs, func(c *Config) { c.Method = other })
			}
		}
		return fs
	case optMicroBatches:
		return []func(*Config){func(c *Config) { c.MicroBatches = 3 }}
	case optCheckpointing:
		return []func(*Config){func(c *Config) { c.Checkpointing = true }}
	case optBuckets:
		return []func(*Config){func(c *Config) { c.BucketBytes = 4096 * units.KB }}
	case optWinograd:
		return []func(*Config){func(c *Config) { c.Winograd = true }}
	case optTensorCores:
		return []func(*Config){func(c *Config) { c.TensorCores = false }}
	case optProtocol:
		return []func(*Config){
			func(c *Config) { c.NCCL.Protocol = nccl.ProtoLL },
			func(c *Config) { c.NCCL.Protocol = nccl.ProtoAuto },
		}
	case optTree:
		return []func(*Config){func(c *Config) { c.NCCL.Algorithm = nccl.AlgoTree }}
	case optFaults:
		return []func(*Config){func(c *Config) {
			c.Faults = &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Slowdown: 1.5}}}
		}}
	case optTrace:
		return []func(*Config){func(c *Config) { c.DetailIntervals = 1 << 12 }}
	}
	return nil
}

// runBytes renders what a run reports: the result's fields but its
// configuration, and its profile's API, kernel and transfer listings.
func runBytes(t *testing.T, cfg Config) string {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := *res
	r.Config, r.Profile = Config{}, nil
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%s", r, res.Profile.Summary())
	for _, name := range res.Profile.TransferNames() {
		fmt.Fprintf(&b, "%s %+v\n", name, res.Profile.Transfer(name))
	}
	return b.String()
}

// The capability table's marks hold both ways. On AlexNet and ResNet-50
// at 4 GPUs and batch 32, for every schedule and every method it
// accepts: an option the schedule rejects makes New fail; an option it
// marks neutral moves no byte of the report or profile; and every other
// option it accepts moves some byte on some workload and method.
func TestScheduleTable(t *testing.T) {
	models := []string{"alexnet", "resnet"}
	for i := range schedules {
		s := &schedules[i]
		var moved, checked [numOptions]bool
		for _, model := range models {
			for _, m := range methodsOf(s) {
				base := quickCfg(t, model, 4, 32, m)
				base.Parallelism, base.Async = s.parallelism, s.async
				want := runBytes(t, base)
				for o := range numOptions {
					why := s.whyNeutral(o, m)
					for j, flip := range flips(s, o, m) {
						cfg := base
						flip(&cfg)
						if !s.accepts(o) {
							if _, err := New(cfg); err == nil {
								t.Errorf("%s: %s is rejected, New accepts it", s.runs, optionNames[o])
							}
							continue
						}
						same := runBytes(t, cfg) == want
						if why != "" && !same {
							t.Errorf("%s/%s/%s: %s (flip %d) is marked neutral (%s), and moves bytes", s.runs, model, m, optionNames[o], j, why)
						}
						if why == "" {
							checked[o] = true
							moved[o] = moved[o] || !same
						}
					}
				}
			}
		}
		for o := range numOptions {
			if checked[o] && !moved[o] {
				t.Errorf("%s: %s is accepted and not marked neutral, and moves no byte on %v", s.runs, optionNames[o], models)
			}
		}
	}
}

// whyNeutral says why accepted option o moves no output byte under the
// schedule and method m, or is empty when it moves some.
func (s *capability) whyNeutral(o option, m Method) string {
	if why := s.neutral[o]; why != whyNotNCCL || m != MethodNCCL {
		return why
	}
	return ""
}
