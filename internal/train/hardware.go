package train

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/memo"
	"repro/internal/topology"
)

// Machine is one entry in the hardware registry: a named (topology, GPU
// spec) pair the `hardware` workload axis resolves to. The registry is
// how API users reach the machines that previously existed only inside
// tests — the paper's DGX-1, the Pascal predecessor its related work
// measures, and the NVSwitch generations that followed.
type Machine struct {
	// Name is the API spelling ("dgx1", "dgx2", ...).
	Name string
	// Title is the prose name used in error messages and listings
	// ("the DGX-1"), phrased so the legacy DGX-1 messages reproduce
	// byte-for-byte.
	Title string
	// GPUs is the machine's device count (the upper bound workload
	// validation enforces).
	GPUs int
	// Interconnect describes the fabric in one line for listings.
	Interconnect string
	// Build constructs the machine's topology.
	Build func() *topology.Topology
	// Spec returns the machine's GPU model.
	Spec func() gpu.Spec
}

// DefaultHardware is the machine workloads run on when the hardware field
// is empty: the paper's Volta DGX-1.
const DefaultHardware = "dgx1"

// machines is the registry in display order (paper machine first, then
// chronological).
var machines = []Machine{
	{
		Name:         "dgx1",
		Title:        "the DGX-1",
		GPUs:         8,
		Interconnect: "NVLink 2.0 hybrid cube-mesh (bonded pairs 50 GB/s)",
		Build:        topology.DGX1,
		Spec:         gpu.V100,
	},
	{
		Name:         "dgx1-pascal",
		Title:        "the Pascal DGX-1",
		GPUs:         8,
		Interconnect: "NVLink 1.0 cube-mesh (4 ports per GPU, 20 GB/s bricks)",
		Build:        topology.DGX1Pascal,
		Spec:         gpu.P100,
	},
	{
		Name:         "dgx2",
		Title:        "the DGX-2",
		GPUs:         16,
		Interconnect: "NVSwitch full crossbar (150 GB/s per GPU)",
		Build:        topology.DGX2,
		Spec:         gpu.V100,
	},
	{
		Name:         "dgx-a100",
		Title:        "the DGX A100",
		GPUs:         8,
		Interconnect: "NVSwitch full crossbar (300 GB/s per GPU)",
		Build:        topology.DGXA100,
		Spec:         gpu.A100,
	},
	{
		Name:         "dgx-h100",
		Title:        "the DGX H100",
		GPUs:         8,
		Interconnect: "NVSwitch full crossbar (450 GB/s per GPU)",
		Build:        topology.DGXH100,
		Spec:         gpu.H100,
	},
}

// MachineByName resolves a hardware name; the empty string means
// DefaultHardware.
func MachineByName(name string) (Machine, error) {
	if name == "" {
		name = DefaultHardware
	}
	for _, m := range machines {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("train: unknown hardware %q (known: %v)", name, MachineNames())
}

// Machines returns the registry in display order.
func Machines() []Machine {
	out := make([]Machine, len(machines))
	copy(out, machines)
	return out
}

// MachineNames returns the registered hardware names in display order.
func MachineNames() []string {
	names := make([]string, len(machines))
	for i, m := range machines {
		names[i] = m.Name
	}
	return names
}

// topologies holds each registered machine's healthy topology, built and
// validated once per process. A graph is read-only once built: every
// trainer books link occupancy on its own interconnect.Fabric, so one
// graph serves every concurrent compile. Only registered names are
// stored, so the registry bounds the memo.
var topologies = memo.New[string, *topology.Topology](len(machines))

// MachineTopology returns the named machine's healthy topology (the empty
// name means DefaultHardware), built and validated on first use and
// shared read-only afterwards. Callers must not modify it.
func MachineTopology(name string) (*topology.Topology, error) {
	if name == "" {
		name = DefaultHardware
	}
	if top, ok := topologies.Get(name); ok {
		return top, nil
	}
	m, err := MachineByName(name)
	if err != nil {
		return nil, err
	}
	top, _, err := topologies.Do(context.Background(), name, memo.Inline,
		func(context.Context) (*topology.Topology, error) {
			top := m.Build()
			if err := top.Validate(); err != nil {
				return nil, err
			}
			return top, nil
		})
	return top, err
}

// ResetCache drops the memoized machine topologies, machine templates and
// plan tables so the next compile rebuilds them. Only benchmarks and
// tests measuring the cold path need it. (Kernel tables live beside the
// dnn plans, so models.ResetCache drops those.)
func ResetCache() {
	topologies.Reset()
	templates.Reset()
	planTables.Reset()
}

// isDefaultHardware reports whether the name (possibly empty) spells the
// stock DGX-1 — the machine fault plans and legacy behavior assume.
func isDefaultHardware(name string) bool {
	return name == "" || name == DefaultHardware
}
