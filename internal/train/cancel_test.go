package train

import (
	"errors"
	"testing"
)

// The Trainer's cancellation probe must be consulted between simulated
// iterations, so a caller that gives up mid-window aborts the
// simulation at the next iteration boundary instead of finishing the
// whole steady-state window.
func TestSimulateWindowHonoursCheckMidWindow(t *testing.T) {
	stop := errors.New("caller gave up")
	for _, tc := range []struct {
		name string
		cfg  Config
		// window selects SimulateWindow (the compiled sync path); the
		// other parallelism modes only run through Run.
		window bool
	}{
		{"sync", quickCfg(t, "alexnet", 2, 16, MethodNCCL), true},
		{"asgd", func() Config {
			c := quickCfg(t, "alexnet", 2, 16, MethodP2P)
			c.Async = true
			return c
		}(), false},
		{"modelparallel", func() Config {
			c := quickCfg(t, "alexnet", 2, 16, MethodP2P)
			c.Parallelism = ModelParallel
			return c
		}(), false},
		{"hybrid", func() Config {
			c := quickCfg(t, "alexnet", 2, 16, MethodNCCL)
			c.Parallelism = HybridOWT
			return c
		}(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Allow one iteration, then signal cancellation at the second
			// probe, before the stop rule can end the window: the
			// window must surface the error instead of a result.
			calls := 0
			tr.SetCheck(func() error {
				calls++
				if calls > 1 {
					return stop
				}
				return nil
			})
			var simErr error
			if tc.window {
				_, simErr = tr.SimulateWindow()
			} else {
				_, simErr = tr.Run()
			}
			if !errors.Is(simErr, stop) {
				t.Fatalf("simulation = %v, want the check's error", simErr)
			}
			if calls <= 1 {
				t.Fatalf("check consulted %d times; cancellation never reached the iteration loop", calls)
			}
		})
	}
}

// A Trainer with no check behaves exactly as before.
func TestSimulateWindowWithoutCheck(t *testing.T) {
	tr, err := New(quickCfg(t, "lenet", 1, 16, MethodP2P))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SimulateWindow(); err != nil {
		t.Fatal(err)
	}
}
