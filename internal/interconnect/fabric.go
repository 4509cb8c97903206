// Package interconnect simulates data movement over a topology: each link
// direction is a FIFO-served resource, transfers experience queueing
// (contention) and per-hop latency, and multi-hop paths are store-and-
// forward — matching the DGX-1, whose GPU-resident NVLink routers cannot
// forward packets, so staged transfers are full copies through the
// intermediate node's memory.
package interconnect

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Fabric binds a topology to a simulation engine and tracks the occupancy
// of every link direction.
type Fabric struct {
	eng *sim.Engine
	top *topology.Topology
	// dirs[l.Index()] holds link l's two directions: [0] leaves l.A, [1]
	// leaves l.B. Entries are created on first use.
	dirs  [][2]*sim.Resource
	links []*topology.Link
}

// New creates a fabric over the topology.
func New(eng *sim.Engine, top *topology.Topology) *Fabric {
	n := top.NumLinks()
	return &Fabric{eng: eng, top: top, dirs: make([][2]*sim.Resource, n), links: make([]*topology.Link, n)}
}

// Topology returns the underlying network.
func (f *Fabric) Topology() *topology.Topology { return f.top }

// Engine returns the simulation engine the fabric schedules on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// direction returns (creating on demand) the resource for one link
// direction. Links are full duplex: the two directions never contend with
// each other.
func (f *Fabric) direction(l *topology.Link, from topology.NodeID) *sim.Resource {
	i, d := l.Index(), 0
	if from != l.A {
		d = 1
	}
	if i >= len(f.dirs) { // a link added after the fabric was built
		f.dirs = append(f.dirs, make([][2]*sim.Resource, i+1-len(f.dirs))...)
		f.links = append(f.links, make([]*topology.Link, i+1-len(f.links))...)
	}
	r := f.dirs[i][d]
	if r == nil {
		r = sim.NewResource(f.eng, fmt.Sprintf("%d->%d(%s)", from, l.Other(from), l.Type))
		f.dirs[i][d] = r
		f.links[i] = l
	}
	return r
}

// Transfer moves size bytes along the path, invoking done with the
// transfer's start and end times. Multi-hop paths are store-and-forward:
// each hop begins only after the previous hop has fully landed. Zero-size
// transfers still pay per-hop latency (they model control messages).
func (f *Fabric) Transfer(path topology.Path, size units.Bytes, done func(start, end time.Duration)) {
	if len(path.Hops) == 0 {
		panic("interconnect: transfer over empty path")
	}
	f.runHop(path, 0, size, f.eng.Now(), time.Duration(-1), done)
}

// TransferAfter is Transfer, but the first hop only becomes eligible at
// absolute time ready (e.g. when the producing kernel finishes).
func (f *Fabric) TransferAfter(ready time.Duration, path topology.Path, size units.Bytes, done func(start, end time.Duration)) {
	if len(path.Hops) == 0 {
		panic("interconnect: transfer over empty path")
	}
	f.runHop(path, 0, size, ready, time.Duration(-1), done)
}

func (f *Fabric) runHop(path topology.Path, i int, size units.Bytes, ready time.Duration, firstStart time.Duration, done func(start, end time.Duration)) {
	hop := path.Hops[i]
	res := f.direction(hop.Link, hop.From)
	dur := hop.Link.Latency + units.TransferTime(size, hop.Link.BW)
	res.ServeAfter(ready, dur, func(start, end time.Duration) {
		fs := firstStart
		if fs < 0 {
			fs = start
		}
		if i+1 < len(path.Hops) {
			f.runHop(path, i+1, size, end, fs, done)
			return
		}
		if done != nil {
			done(fs, end)
		}
	})
}

// Book reserves the path for a transfer of size bytes becoming eligible at
// ready, and returns the transfer's start and end times synchronously (see
// sim.Resource.Book). Multi-hop bookings are store-and-forward: hop i+1 is
// booked with readiness equal to hop i's end.
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
			s, e := f.direction(hop.Link, hop.From).Book(ready, dur)
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
		res := f.direction(hop.Link, hop.From)
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

// Occupy books one link direction for an explicit duration starting no
// earlier than ready, returning the occupation window. Collective models
// whose wire time is computed analytically use this to make the links they
// stream over visible to contention accounting.
func (f *Fabric) Occupy(l *topology.Link, from topology.NodeID, ready, dur time.Duration) (start, end time.Duration) {
	return f.direction(l, from).Book(ready, dur)
}

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
	for i, pair := range f.dirs {
		for d, r := range pair {
			if r == nil || r.Requests() == 0 {
				continue
			}
			l := f.links[i]
			from, to := l.A, l.B
			if d == 1 {
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
	for i, pair := range f.dirs {
		for _, r := range pair {
			if r != nil && f.links[i].Type == typ {
				d += r.BusyTime()
			}
		}
	}
	return d
}
