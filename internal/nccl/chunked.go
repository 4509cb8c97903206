package nccl

import (
	"time"

	"repro/internal/units"
)

// Chunk-level validation of the closed-form ring model: the timed
// collectives price an all-reduce as 2(N-1)/N * S / busBW + 2(N-1) steps of
// latency. This file simulates the actual chunk schedule — N chunks per
// ring, 2(N-1) synchronized steps, every rank forwarding one chunk per
// step over its ring hop — by booking each transfer on the fabric. On idle
// hardware the two must agree; under contention the chunked schedule shows
// where the closed form is optimistic. Tests hold the model to this.

// WireTimeAllReduce exposes the closed-form wire time (excluding launch
// and kernel overheads) of a ring all-reduce of size bytes.
func (c *Communicator) WireTimeAllReduce(size units.Bytes) time.Duration {
	n := len(c.devs)
	if n <= 1 {
		return c.localPass(size)
	}
	return c.wireTime(size, 2*float64(n-1)/float64(n), 2*(n-1))
}

// SimulateChunkedAllReduce books the full chunk schedule of a ring
// all-reduce starting at ready and returns its completion time (excluding
// launch/kernel overheads). Each ring carries a share of the payload
// proportional to its lane bandwidth; the last ring absorbs the rounding
// remainder so the shares sum exactly to size, and within each ring the
// last chunk absorbs the per-ring remainder so the booked payload equals
// the share byte-for-byte. The schedule models the Simple protocol (the
// paper-era line format the chunk sizes correspond to).
func (c *Communicator) SimulateChunkedAllReduce(size units.Bytes, ready time.Duration) time.Duration {
	n := len(c.devs)
	if n <= 1 {
		return ready + c.localPass(size)
	}
	var totalBW float64
	for _, r := range c.rings {
		totalBW += float64(r.LaneBW)
	}
	fab := c.rt.Fabric()

	// Split the payload across rings, last ring taking the remainder.
	shares := make([]units.Bytes, len(c.rings))
	var assigned units.Bytes
	for ri, r := range c.rings {
		if ri == len(c.rings)-1 {
			shares[ri] = size - assigned
			break
		}
		shares[ri] = units.Bytes(float64(size) * float64(r.LaneBW) / totalBW)
		assigned += shares[ri]
	}

	// Per-ring schedule state. Steps are interleaved ACROSS rings (all
	// rings' step s before any ring's step s+1) so that FIFO booking order
	// matches time order on links the rings share.
	type ringState struct {
		// chunks[j] is the j-th chunk of the ring's share; the last chunk
		// absorbs the integer-division remainder. At step s, rank i
		// forwards chunks[(i+s) % ranks], so each chunk is booked exactly
		// once per step and no bytes are dropped.
		chunks    []units.Bytes
		steps     int
		stepReady time.Duration
	}
	states := make([]ringState, len(c.rings))
	maxSteps := 0
	for ri, r := range c.rings {
		ranks := len(r.Order)
		base := shares[ri] / units.Bytes(ranks)
		chunks := make([]units.Bytes, ranks)
		for j := range chunks {
			chunks[j] = base
		}
		chunks[ranks-1] = shares[ri] - base*units.Bytes(ranks-1)
		states[ri] = ringState{chunks: chunks, steps: 2 * (ranks - 1), stepReady: ready}
		if states[ri].steps > maxSteps {
			maxSteps = states[ri].steps
		}
	}
	for s := 0; s < maxSteps; s++ {
		for ri, r := range c.rings {
			st := &states[ri]
			if s >= st.steps {
				continue
			}
			ranks := len(r.Order)
			stepEnd := st.stepReady
			for i := 0; i < ranks; i++ {
				chunk := st.chunks[(i+s)%ranks]
				if chunk <= 0 {
					continue
				}
				// Rank i forwards one chunk along its hop. For 2-rank
				// rings the single full-duplex lane carries both
				// directions; hopLinks holds the pair's link at index 0.
				hi := i
				if ranks == 2 {
					hi = 0
				}
				l := c.hopLinks[ri][hi]
				if l == nil {
					for _, hop := range c.hopPaths[ri][hi].Hops {
						_, e := fab.Direction(hop.Link, hop.From).Book(st.stepReady, units.TransferTime(chunk, hop.Link.BW))
						if e > stepEnd {
							stepEnd = e
						}
					}
					continue
				}
				// Book at the LINK's full bandwidth: when two rings share
				// a bonded link they ride separate lanes concurrently, and
				// serialized full-bandwidth slices on one resource are the
				// fluid equivalent of parallel per-lane channels.
				from := r.Order[i]
				_, e := fab.Direction(l, from).Book(st.stepReady, units.TransferTime(chunk, l.BW))
				if e > stepEnd {
					stepEnd = e
				}
			}
			st.stepReady = stepEnd + stepLatency
		}
	}
	var end time.Duration
	for _, st := range states {
		if st.stepReady > end {
			end = st.stepReady
		}
	}
	return end
}
