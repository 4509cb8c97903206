// Package nccl models the NVIDIA Collective Communications Library as the
// paper's MXNet uses it: communicators over a subset of a node's GPUs, ring
// construction over the NVLink topology, and the AllReduce / Broadcast
// collectives (plus Reduce, ReduceScatter and AllGather) with the ring
// algorithms' cost structure — chunked pipelining, per-call kernel
// overhead, and per-communicator setup cost.
//
// The package also contains functional (real-data) implementations of the
// ring algorithms over float32 buffers, used to verify that the modeled
// algorithms are the actual NCCL algorithms and to property-test their
// semantics.
package nccl

import (
	"fmt"
	"sort"

	"repro/internal/topology"
	"repro/internal/units"
)

// Ring is one directed communication ring over a communicator's ranks:
// Order lists the device IDs in ring order; hop i connects Order[i] to
// Order[(i+1)%N]. LaneBW is the per-hop bandwidth this ring owns (one
// NVLink lane per hop for NVLink rings).
type Ring struct {
	Order  []topology.NodeID
	LaneBW units.Bandwidth
	// PCIe marks a fallback ring routed through host bridges.
	PCIe bool
}

// String renders the ring, e.g. "0-1-5-4-6-7-3-2 (25.00GB/s)".
func (r Ring) String() string {
	s := ""
	for i, id := range r.Order {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", id)
	}
	return fmt.Sprintf("%s (%v)", s, r.LaneBW)
}

// BuildRings constructs up to maxRings edge-disjoint NVLink rings covering
// the given devices, consuming one lane per hop per ring, exactly as NCCL
// searches the NVLink graph for ring circuits. When no NVLink ring exists
// (or for remaining bandwidth), it returns what it found; callers fall back
// to a PCIe ring when the result is empty.
func BuildRings(top *topology.Topology, devs []topology.NodeID) []Ring {
	if len(devs) < 2 {
		return nil
	}
	// Remaining lane capacity per unordered GPU pair.
	capacity := map[pair]int{}
	bwPerLane := map[pair]units.Bandwidth{}
	for _, l := range top.Links() {
		if l.Type != topology.NVLink {
			continue
		}
		p := norm(l.A, l.B)
		capacity[p] += l.Lanes
		bwPerLane[p] = l.BW / units.Bandwidth(l.Lanes)
	}

	ordered := append([]topology.NodeID(nil), devs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	var rings []Ring
	for len(rings) < maxRings {
		cycle := findCycle(ordered, capacity)
		if cycle == nil {
			break
		}
		lane := units.Bandwidth(0)
		hops := len(cycle)
		if hops == 2 {
			// A 2-rank ring uses one full-duplex lane for both directions.
			hops = 1
		}
		for i := 0; i < hops; i++ {
			p := norm(cycle[i], cycle[(i+1)%len(cycle)])
			capacity[p]--
			if lane == 0 || bwPerLane[p] < lane {
				lane = bwPerLane[p]
			}
		}
		rings = append(rings, Ring{Order: cycle, LaneBW: lane})
	}
	return rings
}

// pair is an unordered GPU pair key for lane-capacity accounting.
type pair struct{ a, b topology.NodeID }

// norm canonicalizes a pair key.
func norm(a, b topology.NodeID) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// findCycle searches for a Hamiltonian cycle over the device set using
// edges with remaining capacity, via deterministic backtracking (neighbors
// tried in ascending ID order).
func findCycle(
	ordered []topology.NodeID,
	capacity map[pair]int,
) []topology.NodeID {
	n := len(ordered)
	if n == 2 {
		// A 2-rank "ring" is the pair itself; it consumes one lane.
		if capacity[norm(ordered[0], ordered[1])] >= 1 {
			return []topology.NodeID{ordered[0], ordered[1]}
		}
		return nil
	}
	start := ordered[0]
	path := []topology.NodeID{start}
	used := map[topology.NodeID]bool{start: true}
	var dfs func() []topology.NodeID
	dfs = func() []topology.NodeID {
		last := path[len(path)-1]
		if len(path) == n {
			if capacity[norm(last, start)] >= 1 {
				return append([]topology.NodeID(nil), path...)
			}
			return nil
		}
		for _, next := range ordered {
			if used[next] || capacity[norm(last, next)] < 1 {
				continue
			}
			used[next] = true
			path = append(path, next)
			if c := dfs(); c != nil {
				return c
			}
			path = path[:len(path)-1]
			used[next] = false
		}
		return nil
	}
	return dfs()
}

// SwitchRing builds a ring through a cut-through switch fabric that every
// device attaches to (the NVSwitch case): devices in ID order, each hop a
// GPU->switch->GPU cut-through path. The ring owns the full per-GPU switch
// link bandwidth (inbound and outbound ride different directions of the
// full-duplex link).
func SwitchRing(top *topology.Topology, devs []topology.NodeID) (Ring, bool) {
	ordered := append([]topology.NodeID(nil), devs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	bw := units.Bandwidth(0)
	for i := range ordered {
		from, to := ordered[i], ordered[(i+1)%len(ordered)]
		p, err := top.Route(from, to, topology.RouteStagedNVLink)
		if err != nil || !p.CutThrough {
			return Ring{}, false
		}
		if b := units.Bandwidth(p.MinBW()); bw == 0 || b < bw {
			bw = b
		}
	}
	return Ring{Order: ordered, LaneBW: bw}, true
}

// PCIeRing returns the fallback ring over the host bridges: devices in ID
// order, with the bandwidth of the slowest PCIe link.
func PCIeRing(top *topology.Topology, devs []topology.NodeID) (Ring, error) {
	ordered := append([]topology.NodeID(nil), devs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	bw := units.Bandwidth(0)
	for _, d := range ordered {
		host, err := top.HostCPU(d)
		if err != nil {
			return Ring{}, err
		}
		l := top.DirectLink(d, host, topology.PCIe)
		if l == nil {
			return Ring{}, fmt.Errorf("nccl: GPU %d has no PCIe link", d)
		}
		if bw == 0 || l.BW < bw {
			bw = l.BW
		}
	}
	// Host-bridged hops halve effective bandwidth (up + down share the
	// root complex).
	return Ring{Order: ordered, LaneBW: bw / 2, PCIe: true}, nil
}
