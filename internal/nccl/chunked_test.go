package nccl

import (
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/units"
)

// The closed-form wire time and the chunk-level fabric simulation must
// agree on idle hardware — the analytic shortcut the trainer relies on is
// exactly the chunk schedule's completion time.
func TestClosedFormMatchesChunkedSimulation(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, size := range []units.Bytes{units.MB, 16 * units.MB, 128 * units.MB} {
			c, _ := newComm(t, gpus(n))
			closed := c.WireTimeAllReduce(size)
			simulated := c.SimulateChunkedAllReduce(size, 0)
			diff := simulated.Seconds() - closed.Seconds()
			if diff < 0 {
				diff = -diff
			}
			rel := diff / closed.Seconds()
			// Chunk rounding, per-ring share rounding and one latency
			// quantum of slack are acceptable; anything beyond means the
			// closed form and the schedule have diverged.
			if rel > 0.05 && diff > 5e-6 {
				t.Errorf("n=%d size=%v: closed %v vs chunked %v (%.1f%% apart)",
					n, size, closed, simulated, 100*rel)
				t.Logf("rings: %v", c.rings)
			}
		}
	}
}

// Regression for the integer-division payload loss: the chunk schedule
// used to book size/ranks per chunk and drop the remainder, so awkward
// sizes (primes, sizes below the rank count) under-booked the fabric.
// The last chunk now absorbs the remainder, and the schedule must stay
// in agreement with the closed form at exactly those sizes.
func TestChunkedAwkwardSizesMatchClosedForm(t *testing.T) {
	sizes := []units.Bytes{3, 7, 1009, 65537, 1000003, 16777259}
	for _, n := range []int{2, 4, 8} {
		for _, size := range sizes {
			c, _ := newComm(t, gpus(n))
			closed := c.WireTimeAllReduce(size)
			simulated := c.SimulateChunkedAllReduce(size, 0)
			if simulated <= 0 {
				t.Fatalf("n=%d size=%d: chunked schedule took no time", n, size)
			}
			diff := simulated.Seconds() - closed.Seconds()
			if diff < 0 {
				diff = -diff
			}
			rel := diff / closed.Seconds()
			if rel > 0.05 && diff > 5e-6 {
				t.Errorf("n=%d size=%d: closed %v vs chunked %v (%.1f%% apart)",
					n, size, closed, simulated, 100*rel)
			}
		}
	}
}

// Under contention the chunked schedule must slow down while the closed
// form (which ignores competing traffic) does not — quantifying the
// shortcut's blind spot.
func TestChunkedSeesContention(t *testing.T) {
	c, _ := newComm(t, gpus(8))
	idle := c.SimulateChunkedAllReduce(64*units.MB, 0)

	c2, _ := newComm(t, gpus(8))
	// Saturate one ring link with foreign traffic first.
	top := c2.rt.Fabric().Topology()
	l := top.DirectLink(0, 1, topology.NVLink)
	c2.rt.Fabric().Direction(l, 0).Book(0, 50*time.Millisecond)
	busy := c2.SimulateChunkedAllReduce(64*units.MB, 0)
	if busy <= idle {
		t.Errorf("contended chunked run (%v) should exceed idle (%v)", busy, idle)
	}
}
