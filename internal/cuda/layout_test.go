package cuda

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// exercise books one of every recorded activity on GPU 5 of a runtime
// managing GPUs 5 and 4, plus a peer copy to GPU 6, which it does not
// manage.
func exercise(t *testing.T, rt *Runtime) {
	t.Helper()
	k := rt.NewKernel("k", 10*time.Microsecond)
	rt.Stream(5).Launch(profiler.StageFP, k, 0)
	rt.CommStream(5).Launch(profiler.StageWU, k, 0)
	rt.HostWait(5, profiler.StageWU, 0, time.Microsecond)
	for _, copy := range []func() error{
		func() error { _, _, err := rt.MemcpyHostToDevice(5, units.MB, profiler.StageDataLoad, 0); return err },
		func() error { _, _, err := rt.MemcpyDeviceToHost(5, units.MB, profiler.StageWU, 0, 0); return err },
		func() error { _, _, err := rt.MemcpyPeer(4, 5, units.MB, profiler.StageWU, 0, 0); return err },
		func() error { _, _, err := rt.MemcpyPeer(6, 5, units.MB, profiler.StageWU, 0, 0); return err },
	} {
		if err := copy(); err != nil {
			t.Fatal(err)
		}
	}
}

// The layout names every track and transfer once, as "GPU<id>/..." and
// "xfer ..." tracks and nvprof-style memcpy names, and a profile seeded
// with its names records exactly what one that interns every name does.
func TestLayoutNamesTracksAndTransfers(t *testing.T) {
	top := topology.DGX1()
	lay, err := NewLayout(top, []topology.NodeID{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	seeded := profiler.NewDetailed(64).Seed(profiler.Seeds{APIs: APINames, Transfers: lay.Transfers()})
	exercise(t, lay.NewRuntime(interconnect.New(top), gpu.V100(), nil, DefaultCosts(), seeded))

	type rec struct {
		kind        profiler.Kind
		name, track string
	}
	var got []rec
	for _, iv := range seeded.Intervals() {
		got = append(got, rec{iv.Kind, iv.Name, iv.Track})
	}
	want := []rec{
		{profiler.KindAPI, APILaunchKernel, "GPU5/host"},
		{profiler.KindKernel, "k", "GPU5/compute"},
		{profiler.KindAPI, APILaunchKernel, "GPU5/engine"},
		{profiler.KindKernel, "k", "GPU5/comm"},
		{profiler.KindAPI, APIStreamSync, "GPU5/host"},
		{profiler.KindAPI, APIMemcpyAsync, "GPU5/engine"},
		{profiler.KindTransfer, "memcpyHtoD ->5", "xfer H->5"},
		{profiler.KindAPI, APIMemcpyAsync, "GPU5/engine"},
		{profiler.KindTransfer, "memcpyDtoH 5->", "xfer 5->H"},
		{profiler.KindAPI, APIMemcpyAsync, "GPU4/engine"},
		{profiler.KindTransfer, "memcpyP2P 5->4", "xfer 5->4"},
		{profiler.KindAPI, APIMemcpyAsync, "GPU5/engine"},
		{profiler.KindTransfer, "memcpyP2P 5->6", "xfer 5->6"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recorded\n%v\nwant\n%v", got, want)
	}

	interned := profiler.NewDetailed(64)
	rt, err := NewRuntime(interconnect.New(top), gpu.V100(), []topology.NodeID{5, 4}, DefaultCosts(), interned)
	if err != nil {
		t.Fatal(err)
	}
	exercise(t, rt)
	if a, b := seeded.TransferNames(), interned.TransferNames(); !reflect.DeepEqual(a, b) {
		t.Fatalf("transfer names %v, interning %v", a, b)
	}
	for _, name := range interned.TransferNames() {
		if a, b := seeded.Transfer(name), interned.Transfer(name); a != b {
			t.Errorf("%s: seeded %+v, interned %+v", name, a, b)
		}
	}
	if a, b := seeded.Summary(), interned.Summary(); a != b {
		t.Errorf("summaries differ:\n%s\n%s", a, b)
	}
	if !reflect.DeepEqual(seeded.Intervals(), interned.Intervals()) {
		t.Error("intervals differ")
	}
}
