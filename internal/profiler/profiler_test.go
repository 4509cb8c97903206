package profiler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func iv(kind Kind, name string, stage Stage, start, end time.Duration) Interval {
	return Interval{Kind: kind, Name: name, Stage: stage, Track: "GPU0", Start: start, End: end}
}

func TestRecordAggregates(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 0, 4*time.Microsecond))
	p.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 10, 10+4*time.Microsecond))
	p.Record(iv(KindKernel, "conv", StageFP, 0, time.Millisecond))
	st := p.API("cudaLaunchKernel")
	if st.Calls != 2 || st.Total != 8*time.Microsecond {
		t.Errorf("API stat = %+v", st)
	}
	if st.Mean() != 4*time.Microsecond {
		t.Errorf("mean = %v", st.Mean())
	}
	if p.Kernel("conv").Calls != 1 {
		t.Error("kernel not aggregated")
	}
	if p.API("nonexistent").Calls != 0 {
		t.Error("missing API should be zero")
	}
}

func TestScale(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "x", StageFP, 0, time.Millisecond))
	p.Scale(10)
	if got := p.API("x"); got.Calls != 10 || got.Total != 10*time.Millisecond {
		t.Errorf("scaled stat = %+v", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Record(iv(KindKernel, "k", StageBP, 0, time.Millisecond))
	b.Record(iv(KindKernel, "k", StageBP, 0, 2*time.Millisecond))
	a.Merge(b)
	if got := a.Kernel("k"); got.Calls != 2 || got.Total != 3*time.Millisecond {
		t.Errorf("merged stat = %+v", got)
	}
}

func TestDetailCap(t *testing.T) {
	p := NewDetailed(2)
	for i := 0; i < 5; i++ {
		p.Record(iv(KindKernel, "k", StageFP, 0, time.Millisecond))
	}
	if len(p.Intervals()) != 2 {
		t.Errorf("retained %d intervals, want 2", len(p.Intervals()))
	}
	if p.Retained() != 2 {
		t.Errorf("Retained() = %d, want 2", p.Retained())
	}
	if p.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", p.Dropped())
	}
	// Aggregates still count everything.
	if p.Kernel("k").Calls != 5 {
		t.Error("aggregates must include dropped intervals")
	}
}

func TestAPINamesSortedByTotal(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "small", StageFP, 0, time.Microsecond))
	p.Record(iv(KindAPI, "big", StageFP, 0, time.Second))
	names := p.APINames()
	if len(names) != 2 || names[0] != "big" {
		t.Errorf("names = %v", names)
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "cudaStreamSynchronize", StageFP, 0, time.Millisecond))
	p.Record(iv(KindKernel, "volta_sgemm", StageBP, 0, time.Millisecond))
	s := p.Summary()
	for _, want := range []string{"cudaStreamSynchronize", "volta_sgemm"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// Summary is the API and kernel tables and nothing else: one line per
// recorded name under each heading, whatever stages the work ran in.
func TestSummaryLayout(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 0, 4*time.Microsecond))
	p.Record(iv(KindKernel, "conv", StageBP, 0, time.Millisecond))
	p.Record(iv(KindKernel, "sgd_update", StageWU, 0, 2*time.Millisecond))
	lines := strings.Split(strings.TrimSuffix(p.Summary(), "\n"), "\n")
	want := []string{"API calls:", "  cudaLaunchKernel", "Kernels:", "  sgd_update", "  conv"}
	if len(lines) != len(want) {
		t.Fatalf("summary has %d lines, want %d:\n%s", len(lines), len(want), p.Summary())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestExportChromeTrace(t *testing.T) {
	p := NewDetailed(10)
	p.Record(Interval{Kind: KindKernel, Name: "conv", Stage: StageFP, Track: "GPU0/compute", Start: time.Microsecond, End: 3 * time.Microsecond})
	p.Record(Interval{Kind: KindTransfer, Name: "memcpy", Stage: StageWU, Track: "xfer 0->1", Start: 0, End: 5 * time.Microsecond})
	var buf bytes.Buffer
	if err := p.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 1 process-name + 2 thread-name metadata + 2 activity events.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(out.TraceEvents))
	}
	var sawConv bool
	for _, ev := range out.TraceEvents {
		if ev["name"] == "conv" {
			sawConv = true
			if ev["ph"] != "X" {
				t.Errorf("conv phase = %v", ev["ph"])
			}
			if ev["dur"].(float64) != 2 {
				t.Errorf("conv dur = %v us, want 2", ev["dur"])
			}
		}
	}
	if !sawConv {
		t.Error("conv event missing")
	}
}

func TestStageAndKindStrings(t *testing.T) {
	if StageFP.String() != "FP" || StageBP.String() != "BP" || StageWU.String() != "WU" {
		t.Error("stage strings wrong")
	}
	if KindKernel.String() != "kernel" || KindAPI.String() != "api" {
		t.Error("kind strings wrong")
	}
	if Stage(99).String() == "" || Kind(99).String() == "" {
		t.Error("unknown values should still render")
	}
}

func TestRenderASCII(t *testing.T) {
	p := NewDetailed(100)
	p.Record(Interval{Kind: KindKernel, Name: "conv", Stage: StageFP, Track: "GPU0/compute", Start: 0, End: 50 * time.Microsecond})
	p.Record(Interval{Kind: KindKernel, Name: "grad", Stage: StageBP, Track: "GPU0/compute", Start: 50 * time.Microsecond, End: 100 * time.Microsecond})
	p.Record(Interval{Kind: KindKernel, Name: "ar", Stage: StageWU, Track: "GPU0/comm", Start: 80 * time.Microsecond, End: 100 * time.Microsecond})
	s := p.RenderASCII(0, 100*time.Microsecond, 20)
	for _, want := range []string{"GPU0/compute", "GPU0/comm", "F", "B", "W", "legend"} {
		if !strings.Contains(s, want) {
			t.Errorf("ascii missing %q:\n%s", want, s)
		}
	}
	// FP occupies the first half of the compute row, BP the second.
	lines := strings.Split(s, "\n")
	var computeRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "GPU0/compute") {
			computeRow = l
		}
	}
	bars := computeRow[strings.Index(computeRow, "|")+1:]
	if bars[0] != 'F' || bars[15] != 'B' {
		t.Errorf("compute row shape wrong: %q", computeRow)
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	p := NewDetailed(10)
	if s := p.RenderASCII(0, time.Second, 20); !strings.Contains(s, "no activity") {
		t.Errorf("empty render = %q", s)
	}
	if s := p.RenderASCII(time.Second, time.Second, 20); !strings.Contains(s, "empty window") {
		t.Errorf("degenerate window = %q", s)
	}
}

// TestInternedButUnrecordedIsInvisible pins that interning alone records
// nothing: a slot without calls appears in no name list, summary, or merge.
func TestInternedButUnrecordedIsInvisible(t *testing.T) {
	p := New()
	p.Intern(KindKernel, "ghost_kernel")
	p.Intern(KindAPI, "cudaGhost")
	p.Intern(KindTransfer, "ghost_xfer")
	p.RecordSlot(p.Intern(KindKernel, "real"), iv(KindKernel, "real", StageFP, 0, time.Millisecond))
	if got := p.KernelNames(); len(got) != 1 || got[0] != "real" {
		t.Errorf("kernel names = %v, want [real]", got)
	}
	if got := p.APINames(); len(got) != 0 {
		t.Errorf("API names = %v, want none", got)
	}
	if s := p.Summary(); strings.Contains(s, "ghost") || strings.Contains(s, "Ghost") {
		t.Errorf("summary lists an unrecorded slot:\n%s", s)
	}
	q := New()
	q.Merge(p)
	if got := q.KernelNames(); len(got) != 1 || got[0] != "real" {
		t.Errorf("merged kernel names = %v, want [real]", got)
	}
	if s := q.Summary(); strings.Contains(s, "ghost") || strings.Contains(s, "Ghost") {
		t.Errorf("merged summary lists an unrecorded slot:\n%s", s)
	}
	if len(q.tables[KindKernel].names) != 1 {
		t.Errorf("merge interned %v, want only the recorded name", q.tables[KindKernel].names)
	}
}

// TestCloneSharesNoMutableState races the window-cache pattern: several
// goroutines clone and compact one shared window profile while another
// records new names into a clone of its own (run under -race). Every copy
// must still see the window's aggregates and intervals unchanged, and
// its own records only.
func TestCloneSharesNoMutableState(t *testing.T) {
	window := NewDetailed(4096)
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("k%d", i)
		window.Record(iv(KindKernel, name, StageFP, 0, time.Duration(i+1)*time.Microsecond))
		window.Record(iv(KindTransfer, "x"+name, StageWU, 0, time.Microsecond))
	}
	window.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 0, time.Microsecond))
	want, wantIvs := window.Summary(), slices.Clone(window.Intervals())

	writer := window.Clone()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			writer.Record(iv(KindKernel, fmt.Sprintf("new%d", i), StageBP, 0, time.Microsecond))
			writer.Record(iv(KindAPI, fmt.Sprintf("cudaNew%d", i), StageBP, 0, time.Microsecond))
			writer.Scale(1)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := window.Clone()
				if i%2 == 1 {
					c = window.Compact()
				}
				mine := iv(KindKernel, fmt.Sprintf("mine%d", i), StageBP, 0, time.Microsecond)
				mine.Track = fmt.Sprintf("g%d", g)
				c.Record(mine)
				c.Scale(2)
				if c.Kernel("k3").Calls != 2 || c.API("cudaLaunchKernel").Calls != 2 {
					t.Errorf("clone aggregates wrong: k3=%+v", c.Kernel("k3"))
					return
				}
				if got := c.Intervals(); !reflect.DeepEqual(got, append(wantIvs[:len(wantIvs):len(wantIvs)], mine)) {
					t.Errorf("a copy's intervals end %+v, want the window's then %+v", got[len(got)-1], mine)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := window.Summary(); got != want {
		t.Errorf("window changed under its clones:\n%s\nwant:\n%s", got, want)
	}
	if !reflect.DeepEqual(window.Intervals(), wantIvs) {
		t.Error("the window's intervals changed under its copies")
	}
	if n := writer.Retained(); n != len(wantIvs)+1000 {
		t.Errorf("writer clone retains %d intervals, want %d", n, len(wantIvs)+1000)
	}
	if n := len(writer.KernelNames()); n != 520 {
		t.Errorf("writer clone has %d kernel names, want 520", n)
	}
}

// Clone and Compact share the source's intervals instead of copying
// them, and a record into any of the source, a copy or a copy of a copy
// shows in that profile alone, even when the source's backing array has
// room to grow in place.
func TestCopiesShareIntervals(t *testing.T) {
	src := NewDetailed(100)
	for i := 0; i < 3; i++ {
		src.Record(iv(KindKernel, "k", StageFP, 0, time.Duration(i+1)*time.Microsecond))
	}
	if cap(src.intervals) == len(src.intervals) {
		t.Fatal("the source has no spare capacity; the test would not show an in-place append")
	}
	base := slices.Clone(src.Intervals())
	clone, compact := src.Clone(), src.Compact()
	nested := compact.Clone()
	for _, c := range []*Profile{clone, compact, nested} {
		if &c.intervals[0] != &src.intervals[0] {
			t.Fatal("a copy copied the source's intervals")
		}
	}
	profiles := []*Profile{src, clone, compact, nested}
	for i, p := range profiles {
		own := iv(KindKernel, "k", StageBP, 0, time.Microsecond)
		own.Track = fmt.Sprintf("p%d", i)
		p.Record(own)
	}
	for i, p := range profiles {
		got := p.Intervals()
		if len(got) != len(base)+1 || !reflect.DeepEqual(got[:len(base)], base) || got[len(base)].Track != fmt.Sprintf("p%d", i) {
			t.Errorf("profile %d retains %+v, want the source's %d intervals then its own", i, got, len(base))
		}
	}
}

// Profiles seeded from one shared Names record under the seed's slots
// without interning, intern names outside the seed into their own
// continuation, list and summarize exactly as an unseeded profile that
// recorded the same activities, and never write the shared seed, however
// many goroutines seed, record and clone at once (run under -race).
func TestSeededProfilesShareTheirSeed(t *testing.T) {
	seed := NewNames([]string{"conv", "relu", "conv", "fc"})
	if seed.Len() != 3 || seed.names[2] != "fc" {
		t.Fatalf("NewNames kept %d names, slot 2 = %q; want 3 distinct, fc at 2", seed.Len(), seed.names[2])
	}
	record := func(p *Profile) {
		p.Record(iv(KindKernel, "fc", StageFP, 0, 3*time.Microsecond))
		p.Record(iv(KindKernel, "conv", StageFP, 0, 2*time.Microsecond))
		p.Record(iv(KindKernel, "softmax", StageFP, 0, time.Microsecond))
		p.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 0, time.Microsecond))
	}
	plain := New()
	record(plain)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := New().Seed(Seeds{Kernels: seed})
				if p.Seeded(KindKernel) != seed || p.Seeded(KindAPI) != nil {
					t.Error("Seeded does not report the seed")
					return
				}
				if s := p.Intern(KindKernel, "fc"); s != 2 || p.tables[KindKernel].ids != nil {
					t.Errorf("a seeded name interned as %d, building an index %v", s, p.tables[KindKernel].ids)
					return
				}
				record(p)
				if s := p.Intern(KindKernel, "softmax"); s != 3 || p.Name(KindKernel, s) != "softmax" {
					t.Errorf("a name outside the seed took slot %d", s)
					return
				}
				c := p.Clone()
				c.Record(iv(KindKernel, "mine", StageBP, 0, time.Microsecond))
				if p.Summary() != plain.Summary() || !reflect.DeepEqual(p.KernelNames(), plain.KernelNames()) {
					t.Errorf("seeded profile lists\n%s\nunseeded\n%s", p.Summary(), plain.Summary())
					return
				}
				if c.Kernel("relu").Calls != 0 || c.Kernel("softmax").Calls != 1 || len(c.KernelNames()) != 4 {
					t.Errorf("clone of a seeded profile: %v", c.KernelNames())
					return
				}
			}
		}()
	}
	wg.Wait()
	if seed.Len() != 3 || len(seed.ids) != 3 {
		t.Errorf("the shared seed grew to %d names", seed.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("seeding a table that already holds names did not panic")
		}
	}()
	plain.Seed(Seeds{Kernels: seed})
}

// Compact keeps exactly what a finished run reports: the same listings,
// summary, lookups, intervals and merges as the profile it compacts, with
// no slot for a name that never recorded.
func TestCompactKeepsWhatRecorded(t *testing.T) {
	p := NewDetailed(8).Seed(Seeds{Kernels: NewNames([]string{"ghost", "conv", "fc"}), APIs: NewNames([]string{"cudaGhost", "cudaLaunchKernel"})})
	p.Record(iv(KindKernel, "fc", StageFP, 0, 3*time.Microsecond))
	p.Record(iv(KindKernel, "conv", StageFP, 0, 2*time.Microsecond))
	p.Record(iv(KindKernel, "softmax", StageFP, 0, time.Microsecond))
	p.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 0, time.Microsecond))
	p.Record(iv(KindTransfer, "memcpyHtoD ->0", StageDataLoad, 0, time.Microsecond))
	c := p.Compact()
	if c.Summary() != p.Summary() || !reflect.DeepEqual(c.KernelNames(), p.KernelNames()) ||
		!reflect.DeepEqual(c.TransferNames(), p.TransferNames()) || !reflect.DeepEqual(c.Intervals(), p.Intervals()) {
		t.Errorf("compact profile lists\n%s\noriginal\n%s", c.Summary(), p.Summary())
	}
	if c.Kernel("fc") != p.Kernel("fc") || c.API("cudaLaunchKernel") != p.API("cudaLaunchKernel") || c.Kernel("ghost") != (Stat{}) {
		t.Error("compact lookups differ")
	}
	for k := range c.tables {
		for s, st := range c.tables[k].stats {
			if st.Calls == 0 {
				t.Errorf("%s slot %d (%s) kept without calls", Kind(k), s, c.tables[k].names[s])
			}
		}
	}
	scaled, want := c.Clone(), p.Clone()
	scaled.Scale(3)
	want.Scale(3)
	merged, wantMerged := New(), New()
	merged.Merge(scaled)
	wantMerged.Merge(want)
	if merged.Summary() != wantMerged.Summary() {
		t.Errorf("a scaled compact profile merges as\n%s\nwant\n%s", merged.Summary(), wantMerged.Summary())
	}
}
