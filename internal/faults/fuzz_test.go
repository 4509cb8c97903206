package faults

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/gpu"
)

// FuzzPlan decodes arbitrary bytes as a plan, as the service and the
// dgxsim -faults flag do with their input. Validate must never panic, and
// a plan it accepts must lower safely: Normalize is idempotent, the
// normalized plan still validates, its topology validates, and its
// straggler specs build. A failure's minimized input lands in
// testdata/fuzz/FuzzPlan.
func FuzzPlan(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"failedLinks":[{"a":1,"b":0}]}`,
		`{"degradedLinks":[{"a":3,"b":2,"fraction":0.4}]}`,
		`{"stragglers":[{"gpu":4,"slowdown":1.5}]}`,
		`{"pcieContention":0.5}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var p *Plan
		if json.Unmarshal(body, &p) != nil || p.Validate() != nil {
			return
		}
		n := p.Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v", n, again)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("normalized plan %+v fails validation: %v", n, err)
		}
		for _, q := range []*Plan{p, n} {
			if err := q.Topology().Validate(); err != nil {
				t.Fatalf("plan %+v lowers to an invalid topology: %v", q, err)
			}
			q.Specs(gpu.V100())
		}
	})
}
