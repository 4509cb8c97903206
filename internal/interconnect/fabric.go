// Package interconnect simulates data movement over a topology: each link
// direction is a FIFO-served resource, transfers experience queueing
// (contention) and per-hop latency, and multi-hop paths are store-and-
// forward — matching the DGX-1, whose GPU-resident NVLink routers cannot
// forward packets, so staged transfers are full copies through the
// intermediate node's memory. Switch-relayed paths (DGX-2's NVSwitch) are
// cut-through instead.
package interconnect

import (
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Fabric binds a topology to the occupancy of every link direction. All
// of them live by value in one slab, allocated with the fabric and idle
// until booked.
type Fabric struct {
	top *topology.Topology
	// dirs[2*l.Index()] is link l's direction leaving l.A and
	// dirs[2*l.Index()+1] the one leaving l.B.
	dirs []sim.Resource
}

// New creates a fabric over the topology.
func New(top *topology.Topology) *Fabric {
	return &Fabric{top: top, dirs: make([]sim.Resource, 2*top.NumLinks())}
}

// Topology returns the underlying network.
func (f *Fabric) Topology() *topology.Topology { return f.top }

// Direction returns the resource for one link direction. Links are full
// duplex: the two directions never contend with each other. Collective
// models whose wire time is computed analytically book it for an explicit
// duration, to make the links they stream over visible to contention
// accounting; callers that book the same directions many times resolve it
// once.
func (f *Fabric) Direction(l *topology.Link, from topology.NodeID) *sim.Resource {
	i := 2 * l.Index()
	if from != l.A {
		i++
	}
	if i >= len(f.dirs) { // a link added after the fabric was built
		f.dirs = append(f.dirs, make([]sim.Resource, 2*f.top.NumLinks()-len(f.dirs))...)
	}
	return &f.dirs[i]
}

// Book reserves the path for a transfer of size bytes becoming eligible at
// ready, and returns the transfer's start and end times (see
// sim.Resource.Book). Multi-hop bookings are store-and-forward: hop i+1 is
// booked with readiness equal to hop i's end. A cut-through path books
// one bottleneck-rate window on every hop instead. Zero-size transfers
// still pay per-hop latency (they model control messages).
func (f *Fabric) Book(path topology.Path, size units.Bytes, ready time.Duration) (start, end time.Duration) {
	if len(path.Hops) == 0 {
		panic("interconnect: booking over empty path")
	}
	if path.CutThrough {
		// Switch-relayed paths stream through all hops concurrently at
		// the bottleneck rate; each hop is occupied for the same window.
		var bw units.Bandwidth
		var lat time.Duration
		for i, hop := range path.Hops {
			if i == 0 || hop.Link.BW < bw {
				bw = hop.Link.BW
			}
			lat += hop.Link.Latency
		}
		dur := lat + units.TransferTime(size, bw)
		for i, hop := range path.Hops {
			s, e := f.Direction(hop.Link, hop.From).Book(ready, dur)
			if i == 0 {
				start = s
			}
			if e > end {
				end = e
			}
		}
		return start, end
	}
	for i, hop := range path.Hops {
		res := f.Direction(hop.Link, hop.From)
		dur := hop.Link.Latency + units.TransferTime(size, hop.Link.BW)
		s, e := res.Book(ready, dur)
		if i == 0 {
			start = s
		}
		ready = e
		end = e
	}
	return start, end
}

// AppendState appends every link direction's free time, measured from
// floor and clamped at it (sim.Resource.FreeSince), in direction order.
func (f *Fabric) AppendState(buf []time.Duration, floor time.Duration) []time.Duration {
	for i := range f.dirs {
		buf = append(buf, f.dirs[i].FreeSince(floor))
	}
	return buf
}

// Directions returns how many link directions AppendState appends.
func (f *Fabric) Directions() int { return len(f.dirs) }

// OneWayTime returns the unloaded (contention-free) duration of moving size
// bytes along the path, store-and-forward. Useful for analytic baselines
// and tests.
func OneWayTime(path topology.Path, size units.Bytes) time.Duration {
	var d time.Duration
	for _, h := range path.Hops {
		d += h.Link.Latency + units.TransferTime(size, h.Link.BW)
	}
	return d
}

// LinkStats describes the accumulated occupancy of one link direction.
type LinkStats struct {
	From, To topology.NodeID
	Type     topology.LinkType
	Busy     time.Duration
	Requests int64
}

// Stats returns occupancy for every link direction that carried traffic,
// in deterministic (from, to) order.
func (f *Fabric) Stats() []LinkStats {
	var out []LinkStats
	for i := range f.dirs {
		r := &f.dirs[i]
		if r.Requests() == 0 {
			continue
		}
		l := f.top.Link(i / 2)
		from, to := l.A, l.B
		if i%2 == 1 {
			from, to = to, from
		}
		out = append(out, LinkStats{
			From:     from,
			To:       to,
			Type:     l.Type,
			Busy:     r.BusyTime(),
			Requests: r.Requests(),
		})
	}
	sortStats(out)
	return out
}

func sortStats(s []LinkStats) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			a, b := s[j-1], s[j]
			if a.From < b.From || (a.From == b.From && a.To <= b.To) {
				break
			}
			s[j-1], s[j] = b, a
		}
	}
}

// TotalBytesMoved is not tracked per byte; Busy time per direction is the
// primitive. BusyTime returns the summed occupancy of all directions of
// the given link type (a coarse utilization signal for reports).
func (f *Fabric) BusyTime(typ topology.LinkType) time.Duration {
	var d time.Duration
	for i := range f.dirs {
		if r := &f.dirs[i]; r.Requests() > 0 && f.top.Link(i/2).Type == typ {
			d += r.BusyTime()
		}
	}
	return d
}
