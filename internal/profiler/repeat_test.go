package profiler

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// record books one "iteration" of activities starting at at: a seeded
// kernel, an API call, a marker, and (when fresh is set) a kernel name
// first interned inside the iteration.
func recordIteration(p *Profile, at time.Duration, fresh bool) {
	p.Record(iv(KindKernel, "conv", StageFP, at, at+3*time.Millisecond))
	p.Record(iv(KindAPI, "cudaLaunchKernel", StageFP, at, at+4*time.Microsecond))
	p.Record(iv(KindMarker, "CPU/kvstore", StageWU, at+time.Millisecond, at+2*time.Millisecond))
	if fresh {
		p.Record(iv(KindTransfer, "memcpyP2P 1->0", StageWU, at+time.Millisecond, at+5*time.Millisecond))
	}
}

// Repeat after a Mark leaves exactly what recording the marked span
// again, shifted, would: aggregates, retained intervals and the dropped
// count, whether the detail cap falls before, inside or after the
// repeats, at any offset within a copy. Repeat grows the interval slice
// once, in place when it has room, so a copy taken before it must keep
// its intervals, and a record into the copy must not show in the
// repeated profile.
func TestRepeatMatchesRecording(t *testing.T) {
	const period = 10 * time.Millisecond
	for _, detail := range []int{-1, 0, 3, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 21, 1000} {
		for _, n := range []int64{0, 1, 2, 3, 7} {
			mk := func() *Profile {
				if detail < 0 {
					return New()
				}
				return NewDetailed(detail)
			}
			want, got := mk(), mk()
			for _, p := range []*Profile{want, got} {
				p.Record(iv(KindKernel, "setup", StageOther, 0, time.Millisecond))
				recordIteration(p, 0, false)
			}
			var m Mark
			got.Mark(&m)
			recordIteration(got, period, true)
			sibling := got.Clone()
			before := slices.Clone(sibling.Intervals())
			got.Repeat(&m, n, period)
			sibling.Record(iv(KindKernel, "sibling", StageBP, 0, time.Microsecond))
			for j := int64(1); j <= 1+n; j++ {
				recordIteration(want, time.Duration(j)*period, true)
			}
			if !reflect.DeepEqual(got.Intervals(), want.Intervals()) || got.Dropped() != want.Dropped() {
				t.Fatalf("detail %d, n %d: intervals %v dropped %d, want %v dropped %d",
					detail, n, got.Intervals(), got.Dropped(), want.Intervals(), want.Dropped())
			}
			wantSibling := before
			if detail > len(before) {
				wantSibling = append(before, iv(KindKernel, "sibling", StageBP, 0, time.Microsecond))
			}
			if ivs := sibling.Intervals(); !reflect.DeepEqual(ivs, wantSibling) {
				t.Fatalf("detail %d, n %d: a copy taken before Repeat retains %v, want %v", detail, n, ivs, wantSibling)
			}
			if got.Summary() != want.Summary() || got.Transfer("memcpyP2P 1->0") != want.Transfer("memcpyP2P 1->0") {
				t.Fatalf("detail %d, n %d: summary\n%s\nwant\n%s", detail, n, got.Summary(), want.Summary())
			}
		}
	}
}
