// Package profiler is the simulator's nvprof analog: it accumulates kernel,
// CUDA-API, and transfer statistics, per-training-stage wall time, and
// (optionally) detailed intervals that can be exported as a Chrome trace.
//
// Two granularities are supported. Aggregate mode (the default) keeps only
// counters — cheap enough to profile hundreds of simulated epochs. Detail
// mode additionally retains individual intervals, bounded by a cap, for
// timeline rendering (the paper's Figure 1).
package profiler

import (
	"fmt"
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

// numStages is the number of defined Stage values; stage accounting uses
// fixed arrays indexed by Stage, keeping Record free of map overhead on
// the simulation hot path.
const numStages = int(StageDataLoad) + 1

// numTables is the number of kinds that keep per-name aggregates (kernel,
// API and transfer; markers only feed stage time and the timeline). A
// kind's value is its table index.
const numTables = int(KindTransfer) + 1

// Slot is the dense ID of one interned name within one kind of a
// profile. Slots are per profile: a runtime interns the names it records
// once, then adds every activity by slot, so the hot path indexes a slice
// instead of hashing a string.
type Slot int32

// NoSlot is the slot of a kind without aggregates (markers).
const NoSlot Slot = -1

// table interns one kind's names to slots and holds their aggregates,
// indexed by slot. A slot without calls — a name interned but never
// recorded — appears in no listing, summary or merge.
//
// names may share its backing array with the profile this one was cloned
// from (or with its clones), always capped at the shared length: entries
// are never rewritten and an append past the cap reallocates, so no two
// profiles ever write the same memory. ids is this profile's own, built
// on its first Intern; lookups without it scan names.
type table struct {
	names []string
	ids   map[string]Slot
	stats []Stat
}

// lookup returns the slot of an interned name.
func (t *table) lookup(name string) (Slot, bool) {
	if t.ids != nil {
		s, ok := t.ids[name]
		return s, ok
	}
	for i, n := range t.names {
		if n == name {
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
	if t.ids == nil {
		t.ids = make(map[string]Slot, len(t.names)+tableCap)
		for i, n := range t.names {
			t.ids[n] = Slot(i)
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
type Profile struct {
	tables    [numTables]table
	stageBusy [numStages]time.Duration // summed busy time attributed to each stage
	stageWall [numStages]time.Duration // wall-clock windows set by the trainer

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
	if st := uint(iv.Stage); st < uint(numStages) {
		p.stageBusy[st] += d
	}
	if p.detail {
		p.retain(iv)
	}
}

// retain keeps one interval for the timeline, up to the detail cap.
func (p *Profile) retain(iv Interval) {
	if len(p.intervals) < p.maxDetail {
		p.intervals = append(p.intervals, iv)
	} else {
		p.dropped++
	}
}

// AddStageWall accumulates wall-clock time attributed to a stage window.
// The trainer calls this with per-iteration stage spans.
func (p *Profile) AddStageWall(s Stage, d time.Duration) {
	if i := int(s); i >= 0 && i < numStages {
		p.stageWall[i] += d
	}
}

// StageWall returns the accumulated wall time of a stage.
func (p *Profile) StageWall(s Stage) time.Duration {
	if i := int(s); i >= 0 && i < numStages {
		return p.stageWall[i]
	}
	return 0
}

// StageBusy returns the summed busy time attributed to a stage across all
// recorded activities.
func (p *Profile) StageBusy(s Stage) time.Duration {
	if i := int(s); i >= 0 && i < numStages {
		return p.stageBusy[i]
	}
	return 0
}

// API returns the aggregate for one API name (zero Stat if absent).
func (p *Profile) API(name string) Stat { return p.tables[KindAPI].stat(name) }

// Kernel returns the aggregate for one kernel name (zero Stat if absent).
func (p *Profile) Kernel(name string) Stat { return p.tables[KindKernel].stat(name) }

// Transfer returns the aggregate for one transfer name (zero Stat if absent).
func (p *Profile) Transfer(name string) Stat { return p.tables[KindTransfer].stat(name) }

// APITotal returns the summed duration of all API calls.
func (p *Profile) APITotal() time.Duration {
	var d time.Duration
	for _, st := range p.tables[KindAPI].stats {
		d += st.Total
	}
	return d
}

// APINames returns recorded API names sorted by descending total time.
func (p *Profile) APINames() []string { return p.tables[KindAPI].rankedNames() }

// KernelNames returns recorded kernel names sorted by descending total time.
func (p *Profile) KernelNames() []string { return p.tables[KindKernel].rankedNames() }

// Intervals returns the retained detailed intervals (detail mode only).
func (p *Profile) Intervals() []Interval {
	out := make([]Interval, len(p.intervals))
	copy(out, p.intervals)
	return out
}

// Dropped reports how many intervals exceeded the detail cap.
func (p *Profile) Dropped() int64 { return p.dropped }

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
	for i := range p.stageBusy {
		p.stageBusy[i] = time.Duration(float64(p.stageBusy[i]) * f)
	}
	for i := range p.stageWall {
		p.stageWall[i] = time.Duration(float64(p.stageWall[i]) * f)
	}
}

// Clone returns a deep copy of the profile. The compiled-window cache in
// the training layer keeps one immutable window profile per artifact and
// clones it for every extrapolated result, so callers can Scale their
// copy without touching the shared original. Clone only reads p, so many
// goroutines may clone one profile at once. The copy's aggregates live in
// one arena; its name lists share p's, capped at their current length
// (see table), so recording new names into either side never writes
// memory the other reads.
func (p *Profile) Clone() *Profile {
	n := 0
	for k := range p.tables {
		n += len(p.tables[k].stats)
	}
	arena := make([]Stat, n)
	q := &Profile{
		stageBusy: p.stageBusy,
		stageWall: p.stageWall,
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
		q.tables[k] = table{names: src.names[:m:m], stats: stats}
	}
	if p.intervals != nil {
		q.intervals = append([]Interval(nil), p.intervals...)
	}
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
	for i := range other.stageBusy {
		p.stageBusy[i] += other.stageBusy[i]
	}
	for i := range other.stageWall {
		p.stageWall[i] += other.stageWall[i]
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
	fmt.Fprintf(&b, "Stage wall time: FP=%v BP=%v WU=%v\n",
		p.stageWall[StageFP], p.stageWall[StageBP], p.stageWall[StageWU])
	return b.String()
}
