package nccl

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interconnect"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/units"
)

// newCommOn builds a communicator on an explicit topology and selection.
func newCommOn(t *testing.T, top *topology.Topology, devs []topology.NodeID, sel Selection) *Communicator {
	t.Helper()
	fab := interconnect.New(top)
	rt, err := cuda.NewRuntime(fab, gpu.V100(), devs, cuda.DefaultCosts(), profiler.New())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(rt, devs, sel)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Pins the tuner: small messages take the latency-optimized (tree, LL)
// pair, the NVLink mid-range takes LL128, and bulk transfers take the
// bandwidth-optimal (ring, Simple) — different selections for small vs
// large is the acceptance criterion of the auto protocol.
func TestAutoSelectBySize(t *testing.T) {
	cases := []struct {
		size      units.Bytes
		nvlink    bool
		wantAlgo  Algorithm
		wantProto Protocol
	}{
		{4 * units.KB, true, AlgoTree, ProtoLL},
		{64 * units.KB, true, AlgoTree, ProtoLL}, // cutoff is inclusive
		{units.MB, true, AlgoTree, ProtoLL128},
		{4 * units.MB, true, AlgoTree, ProtoLL128},
		{64 * units.MB, true, AlgoRing, ProtoSimple},
		{4 * units.KB, false, AlgoTree, ProtoLL},
		{units.MB, false, AlgoRing, ProtoSimple}, // LL128 needs NVLink
	}
	for _, c := range cases {
		algo, proto := AutoSelect(c.size, 8, c.nvlink)
		if algo != c.wantAlgo || proto != c.wantProto {
			t.Errorf("AutoSelect(%v, nvlink=%v) = (%v, %v), want (%v, %v)",
				c.size, c.nvlink, algo, proto, c.wantAlgo, c.wantProto)
		}
	}
}

func TestParseProtocolRoundTrip(t *testing.T) {
	for _, name := range ProtocolNames() {
		p, err := ParseProtocol(name)
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParseProtocol(%q).String() = %q", name, p.String())
		}
	}
	if p, err := ParseProtocol(""); err != nil || p != ProtoSimple {
		t.Errorf("empty protocol = (%v, %v), want Simple default", p, err)
	}
	if _, err := ParseProtocol("ll256"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// LL128's 128-byte write-visibility guarantee only holds on NVLink: on a
// PCIe-only machine it must degrade to Simple, and on NVLink it must not.
func TestLL128RequiresNVLink(t *testing.T) {
	ll128 := Selection{Protocol: ProtoLL128}

	pcieLL128 := newCommOn(t, topology.DGX1PCIeOnly(), gpus(8), ll128)
	pcieSimple := newCommOn(t, topology.DGX1PCIeOnly(), gpus(8), Selection{})
	if got, want := pcieLL128.WireTimeAllReduce(16*units.MB), pcieSimple.WireTimeAllReduce(16*units.MB); got != want {
		t.Errorf("LL128 on PCIe = %v, want Simple's %v (must degrade)", got, want)
	}

	nvLL128 := newCommOn(t, topology.DGX1(), gpus(8), ll128)
	nvSimple := newCommOn(t, topology.DGX1(), gpus(8), Selection{})
	if got, want := nvLL128.WireTimeAllReduce(16*units.MB), nvSimple.WireTimeAllReduce(16*units.MB); got == want {
		t.Errorf("LL128 on NVLink = Simple's %v; the line-format tax should show", got)
	}
}

// The protocol tradeoff itself: LL's quartered step latency wins on tiny
// messages; Simple's full bandwidth wins on bulk transfers.
func TestProtocolTradeoffBySize(t *testing.T) {
	ll := newCommOn(t, topology.DGX1(), gpus(8), Selection{Protocol: ProtoLL})
	simple := newCommOn(t, topology.DGX1(), gpus(8), Selection{})

	if llT, sT := ll.WireTimeAllReduce(units.KB), simple.WireTimeAllReduce(units.KB); llT >= sT {
		t.Errorf("1 KiB: LL %v should beat Simple %v", llT, sT)
	}
	if llT, sT := ll.WireTimeAllReduce(256*units.MB), simple.WireTimeAllReduce(256*units.MB); llT <= sT {
		t.Errorf("256 MiB: Simple %v should beat LL %v", sT, llT)
	}
}
