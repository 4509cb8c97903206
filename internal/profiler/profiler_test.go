package profiler

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	if p.StageBusy(StageFP) != time.Millisecond+8*time.Microsecond {
		t.Errorf("stage busy = %v", p.StageBusy(StageFP))
	}
}

func TestStageWall(t *testing.T) {
	p := New()
	p.AddStageWall(StageFP, time.Second)
	p.AddStageWall(StageFP, time.Second)
	p.AddStageWall(StageWU, 300*time.Millisecond)
	if p.StageWall(StageFP) != 2*time.Second {
		t.Errorf("FP wall = %v", p.StageWall(StageFP))
	}
	if p.StageWall(StageWU) != 300*time.Millisecond {
		t.Errorf("WU wall = %v", p.StageWall(StageWU))
	}
}

func TestScale(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "x", StageFP, 0, time.Millisecond))
	p.AddStageWall(StageFP, time.Second)
	p.Scale(10)
	if got := p.API("x"); got.Calls != 10 || got.Total != 10*time.Millisecond {
		t.Errorf("scaled stat = %+v", got)
	}
	if p.StageWall(StageFP) != 10*time.Second {
		t.Errorf("scaled wall = %v", p.StageWall(StageFP))
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Record(iv(KindKernel, "k", StageBP, 0, time.Millisecond))
	b.Record(iv(KindKernel, "k", StageBP, 0, 2*time.Millisecond))
	b.AddStageWall(StageBP, time.Second)
	a.Merge(b)
	if got := a.Kernel("k"); got.Calls != 2 || got.Total != 3*time.Millisecond {
		t.Errorf("merged stat = %+v", got)
	}
	if a.StageWall(StageBP) != time.Second {
		t.Error("merged wall missing")
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
	if p.APITotal() != time.Second+time.Microsecond {
		t.Errorf("total = %v", p.APITotal())
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	p := New()
	p.Record(iv(KindAPI, "cudaStreamSynchronize", StageFP, 0, time.Millisecond))
	p.Record(iv(KindKernel, "volta_sgemm", StageBP, 0, time.Millisecond))
	p.AddStageWall(StageWU, time.Second)
	s := p.Summary()
	for _, want := range []string{"cudaStreamSynchronize", "volta_sgemm", "WU=1s"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
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
// goroutines clone one shared window profile while another records new
// names into a clone of its own (run under -race). Every clone must still
// see the window's aggregates unchanged.
func TestCloneSharesNoMutableState(t *testing.T) {
	window := NewDetailed(64)
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("k%d", i)
		window.Record(iv(KindKernel, name, StageFP, 0, time.Duration(i+1)*time.Microsecond))
		window.Record(iv(KindTransfer, "x"+name, StageWU, 0, time.Microsecond))
	}
	window.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, 0, time.Microsecond))
	want := window.Summary()

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
				c.Record(iv(KindKernel, fmt.Sprintf("mine%d", i), StageBP, 0, time.Microsecond))
				c.Scale(2)
				if c.Kernel("k3").Calls != 2 || c.API("cudaLaunchKernel").Calls != 2 {
					t.Errorf("clone aggregates wrong: k3=%+v", c.Kernel("k3"))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := window.Summary(); got != want {
		t.Errorf("window changed under its clones:\n%s\nwant:\n%s", got, want)
	}
	if n := len(writer.KernelNames()); n != 520 {
		t.Errorf("writer clone has %d kernel names, want 520", n)
	}
}
