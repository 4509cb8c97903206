// Package profiler is the simulator's nvprof analog: it accumulates kernel,
// CUDA-API, and transfer statistics and (optionally) detailed intervals,
// each labelled with its training stage, that can be exported as a Chrome
// trace.
//
// Two granularities are supported. Aggregate mode (the default) keeps only
// counters — cheap enough to profile hundreds of simulated epochs. Detail
// mode additionally retains individual intervals, bounded by a cap, for
// timeline rendering (the paper's Figure 1).
package profiler

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Stage labels the phase of DNN training an activity belongs to, following
// the paper's decomposition.
type Stage int

// Training stages.
const (
	StageOther Stage = iota
	StageFP
	StageBP
	StageWU
	StageDataLoad
)

// String names the stage as the paper does.
func (s Stage) String() string {
	switch s {
	case StageFP:
		return "FP"
	case StageBP:
		return "BP"
	case StageWU:
		return "WU"
	case StageDataLoad:
		return "DataLoad"
	case StageOther:
		return "Other"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Kind classifies a recorded activity.
type Kind int

// Activity kinds.
const (
	KindKernel Kind = iota
	KindAPI
	KindTransfer
	KindMarker
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindAPI:
		return "api"
	case KindTransfer:
		return "transfer"
	case KindMarker:
		return "marker"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Interval is one recorded activity on a track (a GPU queue, a host thread,
// a link direction).
type Interval struct {
	Kind  Kind
	Name  string
	Stage Stage
	Track string
	Start time.Duration
	End   time.Duration
}

// Duration returns the interval's extent.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Stat aggregates calls of one name.
type Stat struct {
	Calls int64
	Total time.Duration
}

// Mean returns the average duration per call.
func (s Stat) Mean() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Calls)
}

// numTables is the number of kinds that keep per-name aggregates (kernel,
// API and transfer; markers only feed the timeline). A kind's value is
// its table index.
const numTables = int(KindTransfer) + 1

// Slot is the dense ID of one interned name within one kind of a
// profile. Slots are per profile: a runtime interns the names it records
// once, then adds every activity by slot, so the hot path indexes a slice
// instead of hashing a string.
type Slot int32

// NoSlot is the slot of a kind without aggregates (markers).
const NoSlot Slot = -1

// Names is an immutable list of distinct names, each at its slot (its
// index). Profiles seeded with it (Profile.Seed) start a table with these
// names at these slots and share the list and its index read-only, so
// many profiles, on any goroutines, seed from one Names without copying
// it, and a caller that knows a name's slot in the Names knows it in
// every profile seeded with it.
type Names struct {
	names []string
	ids   map[string]Slot
}

// NewNames returns the names in order, each repeat dropped (a name keeps
// its first slot).
func NewNames(names []string) *Names {
	n := &Names{names: make([]string, 0, len(names)), ids: make(map[string]Slot, len(names))}
	for _, name := range names {
		if _, ok := n.ids[name]; !ok {
			n.ids[name] = Slot(len(n.names))
			n.names = append(n.names, name)
		}
	}
	return n
}

// Len returns the number of names.
func (n *Names) Len() int { return len(n.names) }

// Seeds names the slots a profile's kernel, API and transfer tables start
// with (see Names). A nil entry seeds nothing.
type Seeds struct {
	Kernels, APIs, Transfers *Names
}

// table interns one kind's names to slots and holds their aggregates,
// indexed by slot. A slot without calls — a name interned but never
// recorded — appears in no listing, summary or merge, so a seeded slot
// that never records is invisible, and no output depends on which slot a
// name has: every listing ranks by total time, then by name.
//
// names starts with the seed's names (slots 0..seed.Len()-1, found
// through the seed's shared index) and continues with this profile's
// own. names may share its backing array with the seed, the profile this
// one was cloned from or its clones, always capped at the shared length:
// entries are never rewritten and an append past the cap reallocates, so
// no two profiles ever write the same memory. ids indexes only the
// profile's own names, built on its first Intern of a new name; lookups
// without it scan them.
type table struct {
	seed  *Names
	names []string
	ids   map[string]Slot
	stats []Stat
}

// seeded returns how many of the table's names come from its seed.
func (t *table) seeded() int {
	if t.seed == nil {
		return 0
	}
	return len(t.seed.names)
}

// lookup returns the slot of an interned name.
func (t *table) lookup(name string) (Slot, bool) {
	if t.seed != nil {
		if s, ok := t.seed.ids[name]; ok {
			return s, true
		}
	}
	if t.ids != nil {
		s, ok := t.ids[name]
		return s, ok
	}
	for i := t.seeded(); i < len(t.names); i++ {
		if t.names[i] == name {
			return Slot(i), true
		}
	}
	return NoSlot, false
}

// tableCap presizes a table on its first intern, sparing the first few
// regrowths.
const tableCap = 8

// intern returns name's slot, adding an empty one on first sight.
func (t *table) intern(name string) Slot {
	if t.seed != nil {
		if s, ok := t.seed.ids[name]; ok {
			return s
		}
	}
	if t.ids == nil {
		own := t.names[t.seeded():]
		t.ids = make(map[string]Slot, len(own)+tableCap)
		for i, n := range own {
			t.ids[n] = Slot(t.seeded() + i)
		}
		if cap(t.names) == 0 {
			t.names = make([]string, 0, tableCap)
			t.stats = make([]Stat, 0, tableCap)
		}
	}
	if s, ok := t.ids[name]; ok {
		return s
	}
	s := Slot(len(t.names))
	t.names = append(t.names, name)
	t.stats = append(t.stats, Stat{})
	t.ids[name] = s
	return s
}

// stat returns the aggregate for one name (zero Stat if absent).
func (t *table) stat(name string) Stat {
	if s, ok := t.lookup(name); ok {
		return t.stats[s]
	}
	return Stat{}
}

// ranked returns the slots with calls sorted by descending total time,
// ties by name.
func (t *table) ranked() []Slot {
	out := make([]Slot, 0, len(t.stats))
	for i := range t.stats {
		if t.stats[i].Calls > 0 {
			out = append(out, Slot(i))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := t.stats[out[i]].Total, t.stats[out[j]].Total
		if a != b {
			return a > b
		}
		return t.names[out[i]] < t.names[out[j]]
	})
	return out
}

// rankedNames returns the names of ranked slots in order.
func (t *table) rankedNames() []string {
	slots := t.ranked()
	names := make([]string, len(slots))
	for i, s := range slots {
		names[i] = t.names[s]
	}
	return names
}

// Profile accumulates statistics for one run.
//
// Retained intervals are never rewritten once recorded, only appended
// to, so Clone and Compact share the source's intervals, capped at their
// current length the way tables share name lists: an append past the cap
// reallocates, so recording into either side never writes memory the
// other reads.
type Profile struct {
	tables [numTables]table

	detail    bool
	maxDetail int
	intervals []Interval
	dropped   int64
}

// New returns an aggregate-only profile.
func New() *Profile {
	return &Profile{}
}

// NewDetailed returns a profile that also retains up to maxIntervals
// individual intervals (further intervals still feed the aggregates).
func NewDetailed(maxIntervals int) *Profile {
	p := New()
	p.detail = true
	p.maxDetail = maxIntervals
	return p
}

// Seed starts each table of a fresh profile with its seed's names, at the
// seed's slots, and returns p. The names and their index stay shared with
// the seed; the profile's own aggregates for all of them live in one
// arena. Seeding a table that already holds a name panics.
func (p *Profile) Seed(s Seeds) *Profile {
	seeds := [numTables]*Names{KindKernel: s.Kernels, KindAPI: s.APIs, KindTransfer: s.Transfers}
	n := 0
	for k, seed := range seeds {
		if seed == nil {
			continue
		}
		if len(p.tables[k].names) > 0 {
			panic(fmt.Sprintf("profiler: seeding a %s table that already holds names", Kind(k)))
		}
		n += len(seed.names)
	}
	arena := make([]Stat, n)
	for k, seed := range seeds {
		if seed == nil {
			continue
		}
		m := len(seed.names)
		p.tables[k] = table{seed: seed, names: seed.names[:m:m], stats: arena[:m:m]}
		arena = arena[m:]
	}
	return p
}

// Seeded returns the Names kind k's table was seeded with, or nil: its
// slots are that table's slots.
func (p *Profile) Seeded(k Kind) *Names {
	if k < 0 || int(k) >= numTables {
		return nil
	}
	return p.tables[k].seed
}

// Name returns the name interned as slot s of kind k.
func (p *Profile) Name(k Kind, s Slot) string { return p.tables[k].names[s] }

// Intern returns the slot of name in kind k's table, adding it on first
// sight. Interning alone records nothing. Kinds without aggregates
// (markers) return NoSlot.
func (p *Profile) Intern(k Kind, name string) Slot {
	if k < 0 || int(k) >= numTables {
		return NoSlot
	}
	return p.tables[k].intern(name)
}

// Record adds one activity: it interns the interval's name and records by
// slot.
func (p *Profile) Record(iv Interval) {
	p.RecordSlot(p.Intern(iv.Kind, iv.Name), iv)
}

// RecordSlot adds one activity whose name was interned as s (from
// Intern(iv.Kind, iv.Name) on this profile; NoSlot for markers). It is
// small enough to inline into the runtime's launch path.
func (p *Profile) RecordSlot(s Slot, iv Interval) {
	d := iv.End - iv.Start
	if s >= 0 {
		st := &p.tables[iv.Kind].stats[s]
		st.Calls++
		st.Total += d
	}
	if p.detail {
		p.retain(iv)
	}
}

// AddSlot adds calls activities of kind k totalling d to slot s (interned
// on this profile), without retaining an interval: the aggregate half of
// RecordSlot, for callers that book many activities in closed form.
// Callers must fall back to RecordSlot on a Detailed profile so the
// timeline keeps every interval.
func (p *Profile) AddSlot(k Kind, s Slot, calls int64, d time.Duration) {
	st := &p.tables[k].stats[s]
	st.Calls += calls
	st.Total += d
}

// Detailed reports whether the profile retains individual intervals.
func (p *Profile) Detailed() bool { return p.detail }

// retain keeps one interval for the timeline, up to the detail cap.
func (p *Profile) retain(iv Interval) {
	if len(p.intervals) < p.maxDetail {
		p.intervals = append(p.intervals, iv)
	} else {
		p.dropped++
	}
}

// Mark is a point in a profile's recording: every aggregate and how many
// intervals were retained and dropped. Repeat replays what was recorded
// since it. A Mark's buffer is reused by every Profile.Mark into it.
type Mark struct {
	stats     []Stat
	lens      [numTables]int
	intervals int
	dropped   int64
}

// Mark records the profile's current point into m.
func (p *Profile) Mark(m *Mark) {
	n := 0
	for k := range p.tables {
		n += len(p.tables[k].stats)
	}
	m.stats = slices.Grow(m.stats[:0], n)
	for k := range p.tables {
		m.lens[k] = len(p.tables[k].stats)
		m.stats = append(m.stats, p.tables[k].stats...)
	}
	m.intervals, m.dropped = len(p.intervals), p.dropped
}

// Repeat records n more copies of what the profile recorded since m, as
// if the activities since m happened n more times, the j-th time shifted
// by j·shift: every aggregate grows by n times its growth since m (Calls
// and Total are integers, so this is exact), and a Detailed profile
// retains the intervals since m again, shifted, up to its cap, counting
// the rest as dropped.
func (p *Profile) Repeat(m *Mark, n int64, shift time.Duration) {
	if n <= 0 {
		return
	}
	base := m.stats
	for k := range p.tables {
		stats := p.tables[k].stats
		for i := range stats {
			var was Stat
			if i < m.lens[k] {
				was = base[i]
			}
			stats[i].Calls += n * (stats[i].Calls - was.Calls)
			stats[i].Total += time.Duration(n) * (stats[i].Total - was.Total)
		}
		base = base[m.lens[k]:]
	}
	if !p.detail {
		return
	}
	since := p.intervals[m.intervals:]
	per := int64(len(since)) + p.dropped - m.dropped
	if p.dropped > m.dropped {
		// The cap was reached before the last copy ended.
		p.dropped += n * per
		return
	}
	// Grow once, to what the copies retain before the cap.
	if room := p.maxDetail - len(p.intervals); room > 0 && len(since) > 0 {
		if int64(room)/int64(len(since)) >= n {
			room = int(n) * len(since)
		}
		p.intervals = slices.Grow(p.intervals, room)
	}
	for j := int64(1); j <= n; j++ {
		if len(p.intervals) >= p.maxDetail {
			p.dropped += (n - j + 1) * per
			return
		}
		for _, iv := range since {
			iv.Start += time.Duration(j) * shift
			iv.End += time.Duration(j) * shift
			p.retain(iv)
		}
	}
}

// API returns the aggregate for one API name (zero Stat if absent).
func (p *Profile) API(name string) Stat { return p.tables[KindAPI].stat(name) }

// Kernel returns the aggregate for one kernel name (zero Stat if absent).
func (p *Profile) Kernel(name string) Stat { return p.tables[KindKernel].stat(name) }

// Transfer returns the aggregate for one transfer name (zero Stat if absent).
func (p *Profile) Transfer(name string) Stat { return p.tables[KindTransfer].stat(name) }

// APINames returns recorded API names sorted by descending total time.
func (p *Profile) APINames() []string { return p.tables[KindAPI].rankedNames() }

// KernelNames returns recorded kernel names sorted by descending total time.
func (p *Profile) KernelNames() []string { return p.tables[KindKernel].rankedNames() }

// TransferNames returns recorded transfer names sorted by descending total
// time.
func (p *Profile) TransferNames() []string { return p.tables[KindTransfer].rankedNames() }

// Intervals returns the retained detailed intervals (detail mode only).
func (p *Profile) Intervals() []Interval {
	out := make([]Interval, len(p.intervals))
	copy(out, p.intervals)
	return out
}

// Retained reports how many intervals the profile retains: the length of
// Intervals, without the copy.
func (p *Profile) Retained() int { return len(p.intervals) }

// Dropped reports how many intervals exceeded the detail cap.
func (p *Profile) Dropped() int64 { return p.dropped }

// Largest returns the largest call count and the largest total time of
// any aggregate of any kind (not necessarily the same aggregate's): what
// Scale multiplies furthest.
func (p *Profile) Largest() Stat {
	var s Stat
	for k := range p.tables {
		for _, st := range p.tables[k].stats {
			s.Calls = max(s.Calls, st.Calls)
			s.Total = max(s.Total, st.Total)
		}
	}
	return s
}

// Scale multiplies every aggregate by f. The trainer uses this to
// extrapolate a steady-state iteration window to a full epoch: counters are
// linear in iteration count, so scaling is exact for the steady portion.
// Detailed intervals are left untouched (they describe the simulated
// window, not the extrapolation).
func (p *Profile) Scale(f float64) {
	for k := range p.tables {
		for i := range p.tables[k].stats {
			st := &p.tables[k].stats[i]
			st.Calls = int64(float64(st.Calls)*f + 0.5)
			st.Total = time.Duration(float64(st.Total) * f)
		}
	}
}

// Clone returns a copy of the profile that shares nothing mutable with
// it. The compiled-window cache in the training layer keeps one immutable
// window profile per artifact and clones it for every extrapolated
// result, so callers can Scale their copy without touching the shared
// original. Clone only reads p, so many goroutines may clone one profile
// at once. The copy's aggregates live in one arena; its name lists and
// intervals share p's, capped at their current length (see table and
// Profile), so recording into either side never writes memory the other
// reads.
func (p *Profile) Clone() *Profile {
	n := 0
	for k := range p.tables {
		n += len(p.tables[k].stats)
	}
	arena := make([]Stat, n)
	q := &Profile{
		detail:    p.detail,
		maxDetail: p.maxDetail,
		dropped:   p.dropped,
	}
	for k := range p.tables {
		src := &p.tables[k]
		m := len(src.stats)
		stats := arena[:m:m]
		arena = arena[m:]
		copy(stats, src.stats)
		q.tables[k] = table{seed: src.seed, names: src.names[:m:m], stats: stats}
	}
	q.intervals = slices.Clip(p.intervals)
	return q
}

// Compact returns a copy of the profile that keeps only the names with
// calls: what a finished run's listings, summaries and merges read,
// without the slots its seeds reserved for activities that never
// happened. The names are renumbered, so the copy is read by name (and
// cloned, scaled and merged), never recorded into by one of p's slots.
// Its names and aggregates live in one arena each; its intervals are
// p's, shared as Clone shares them.
func (p *Profile) Compact() *Profile {
	n := 0
	for k := range p.tables {
		for _, st := range p.tables[k].stats {
			if st.Calls > 0 {
				n++
			}
		}
	}
	names := make([]string, n)
	stats := make([]Stat, n)
	q := &Profile{detail: p.detail, maxDetail: p.maxDetail, dropped: p.dropped}
	i := 0
	for k := range p.tables {
		src := &p.tables[k]
		lo := i
		for s, st := range src.stats {
			if st.Calls > 0 {
				names[i], stats[i] = src.names[s], st
				i++
			}
		}
		q.tables[k] = table{names: names[lo:i:i], stats: stats[lo:i:i]}
	}
	q.intervals = slices.Clip(p.intervals)
	return q
}

// Merge adds other's aggregates into p. Detailed intervals are appended up
// to p's cap.
func (p *Profile) Merge(other *Profile) {
	for k := range other.tables {
		src, dst := &other.tables[k], &p.tables[k]
		for i := range src.stats {
			st := src.stats[i]
			if st.Calls == 0 {
				continue
			}
			d := &dst.stats[dst.intern(src.names[i])]
			d.Calls += st.Calls
			d.Total += st.Total
		}
	}
	if p.detail {
		for _, iv := range other.intervals {
			p.retain(iv)
		}
	}
}

// Summary renders an nvprof-style text summary: top APIs and kernels with
// call counts and total times.
func (p *Profile) Summary() string {
	var b strings.Builder
	for _, sec := range []struct {
		title string
		t     *table
	}{{"API calls", &p.tables[KindAPI]}, {"Kernels", &p.tables[KindKernel]}} {
		fmt.Fprintf(&b, "%s:\n", sec.title)
		for _, slot := range sec.t.ranked() {
			s := sec.t.stats[slot]
			fmt.Fprintf(&b, "  %-28s calls=%-10d total=%-14v avg=%v\n", sec.t.names[slot], s.Calls, s.Total, s.Mean())
		}
	}
	return b.String()
}
