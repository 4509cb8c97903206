package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpec decodes arbitrary bytes as a fleet spec, as the service's
// /v1/cluster/simulate does. Validate must never panic, and a small spec
// it accepts (at most 8 jobs on at most 4 nodes) must simulate twice to
// identical Results: the second run prices from the caches the first
// one warmed, which must change nothing. A failure's minimized input
// lands in testdata/fuzz/FuzzSpec.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":[{"count":2}],"jobs":[{"model":"lenet","gpus":1,"batch":16,"images":4096},{"model":"lenet","gpus":8,"batch":16,"images":4096,"arrivalNs":1}]}`,
		`{"nodes":[{"faults":{"stragglers":[{"gpu":0,"slowdown":2}]}},{}],"jobs":[{"model":"alexnet","gpus":4,"batch":16,"images":8192,"arrivalNs":5},{"model":"lenet","gpus":4,"batch":16,"images":4096},{"model":"lenet","gpus":4,"batch":16,"images":4096}],"queue":"sjf","policy":"frag-aware"}`,
		`{"nodes":[{"hardware":"dgx2"},{"count":2}],"jobs":[{"model":"lenet","gpus":16,"batch":8,"images":2048,"repeats":2}],"policy":"best-fit"}`,
		`{"nodes":[{"count":3}],"mix":{"jobs":6,"meanInterarrivalNs":1000000000,"maxRepeats":3},"seed":9}`,
		`{"nodes":[{"faults":{"failedLinks":[{"a":0,"b":9}]}}],"jobs":[{"model":"lenet","gpus":1,"batch":16}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if json.Unmarshal(body, &spec) != nil || spec.Validate() != nil {
			return
		}
		jobs, nodes := len(spec.Jobs), len(expandNodes(spec.Nodes))
		if spec.Mix != nil {
			jobs = spec.Mix.Jobs
		}
		if jobs > 8 || nodes > 4 {
			return
		}
		a, errA := Simulate(context.Background(), spec)
		b, errB := Simulate(context.Background(), spec)
		if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("runs disagree: %v, then %v", errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("runs disagree:\n%+v\n%+v", a, b)
		}
	})
}
