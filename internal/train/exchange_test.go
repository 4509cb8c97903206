package train

import (
	"testing"
	"time"

	"repro/internal/nccl"
	"repro/internal/units"
)

// round builds a LeNet trainer on gpus GPUs under method and books one
// exchange of size bytes on its idle machine, the gradient ready at
// ready: the reduction onto the root, the root's update and the weights'
// return to every device. It returns the trainer and when the round ends.
func round(t *testing.T, method Method, gpus int, size units.Bytes, ready time.Duration) (*Trainer, time.Duration) {
	t.Helper()
	tr, err := New(quickCfg(t, "lenet", gpus, 16, method))
	if err != nil {
		t.Fatal(err)
	}
	end, err := tr.exchange(tr.bucket(size), ready, tr.updateKernel(size))
	if err != nil {
		t.Fatal(err)
	}
	if end <= ready {
		t.Fatalf("%s on %d GPUs: a %v round ends at %v, ready at %v", method, gpus, size, end, ready)
	}
	return tr, end
}

// The three methods' rounds rank as the paper explains them: NCCL's
// pipelined rings beat the P2P tree on large arrays at 8 GPUs (the
// headline crossover), the tree's lower fixed cost wins on tiny arrays
// (why LeNet prefers P2P), the host parameter server loses to both (the
// baseline the GPU-side methods were introduced to beat), and one GPU
// still pays NCCL's collective kernels where P2P moves nothing (the
// overhead Table II isolates).
func TestExchangeMethods(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gpus   int
		size   units.Bytes
		faster []Method
		slower Method
	}{
		{"large arrays on 8 GPUs", 8, 100 * units.MB, []Method{MethodNCCL}, MethodP2P},
		{"tiny arrays on 2 GPUs", 2, 16 * units.KB, []Method{MethodP2P}, MethodNCCL},
		{"the host server", 4, 100 * units.MB, []Method{MethodP2P, MethodNCCL}, MethodLocal},
		{"one GPU", 1, 100 * units.MB, []Method{MethodP2P}, MethodNCCL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow, slowEnd := round(t, tc.slower, tc.gpus, tc.size, time.Millisecond)
			for _, m := range tc.faster {
				if _, end := round(t, m, tc.gpus, tc.size, time.Millisecond); end >= slowEnd {
					t.Errorf("%s round (%v) should beat %s round (%v)", m, end, tc.slower, slowEnd)
				}
			}
			if tc.slower == MethodNCCL && slow.prof.Kernel(nccl.KernelAllReduce).Calls == 0 {
				t.Error("the NCCL round launched no all-reduce kernel")
			}
		})
	}
	// Every method completes a round on an idle machine, and only NCCL
	// pays setup: its communicator's construction.
	t.Run("setup", func(t *testing.T) {
		for _, m := range []Method{MethodP2P, MethodNCCL, MethodLocal} {
			t.Run(string(m), func(t *testing.T) {
				tr, _ := round(t, m, 2, units.MB, 0)
				if setup := tr.setupTime() - tr.sessionStartup(); (setup > 0) != (m == MethodNCCL) {
					t.Errorf("%s setup beyond startup = %v", m, setup)
				}
			})
		}
	})
}
