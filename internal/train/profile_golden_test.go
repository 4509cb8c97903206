package train_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
)

var updateProfiles = flag.Bool("update", false, "rewrite testdata/profile_golden.json from this tree")

// profileGoldenPath holds SHA-256 digests of every pinned artifact. The
// report JSON omits the profile, so these digests are what catch a change
// in kernel, API or transfer accounting.
const profileGoldenPath = "testdata/profile_golden.json"

// goldenCase is one pinned workload.
type goldenCase struct {
	name string
	w    core.Workload
}

// goldenCases covers every model under each communication flavour on
// three machine generations, plus every non-sync schedule and the
// lowering-sensitive options (checkpointing, a straggler GPU).
func goldenCases() []goldenCase {
	var cs []goldenCase
	flavours := []struct {
		name     string
		method   core.Method
		protocol string
	}{
		{"p2p", core.P2P, ""},
		{"nccl-simple", core.NCCL, "simple"},
		{"nccl-auto", core.NCCL, "auto"},
	}
	for _, m := range models.Names() {
		for _, f := range flavours {
			for _, hw := range []string{"dgx1", "dgx2", "dgx-h100"} {
				cs = append(cs, goldenCase{
					name: fmt.Sprintf("%s/%s/%s", m, f.name, hw),
					w: core.Workload{Model: m, GPUs: 8, Batch: 16, Method: f.method,
						Protocol: f.protocol, Hardware: hw},
				})
			}
		}
	}
	straggler := &faults.Plan{Stragglers: []faults.Straggler{{GPU: 2, Slowdown: 1.5}}}
	return append(cs,
		goldenCase{"lenet/single-gpu", core.Workload{Model: "lenet", GPUs: 1, Batch: 64, Method: core.NCCL}},
		goldenCase{"alexnet/async", core.Workload{Model: "alexnet", GPUs: 4, Batch: 32, Method: core.P2P, Async: true}},
		goldenCase{"alexnet/model-parallel", core.Workload{Model: "alexnet", GPUs: 4, Batch: 32, Method: core.NCCL, ModelParallel: true}},
		goldenCase{"alexnet/hybrid-owt", core.Workload{Model: "alexnet", GPUs: 4, Batch: 32, Method: core.NCCL, HybridOWT: true}},
		goldenCase{"resnet/checkpointing", core.Workload{Model: "resnet", GPUs: 4, Batch: 32, Method: core.NCCL, Checkpointing: true}},
		goldenCase{"resnet/nccl-tree-bucket", core.Workload{Model: "resnet", GPUs: 8, Batch: 16, Method: core.NCCL, NCCLTree: true, BucketKB: 4096}},
		goldenCase{"googlenet/straggler/p2p", core.Workload{Model: "googlenet", GPUs: 8, Batch: 16, Method: core.P2P, Faults: straggler}},
		goldenCase{"googlenet/straggler/nccl", core.Workload{Model: "googlenet", GPUs: 8, Batch: 16, Method: core.NCCL, Faults: straggler}},
		goldenCase{"resnet/model-parallel/straggler", core.Workload{Model: "resnet", GPUs: 8, Batch: 32, Method: core.NCCL, ModelParallel: true, Faults: straggler}},
		goldenCase{"inception-v3/model-parallel/micro3", core.Workload{Model: "inception-v3", GPUs: 4, Batch: 32, Method: core.NCCL, ModelParallel: true, MicroBatches: 3}},
		goldenCase{"googlenet/hybrid-owt/straggler", core.Workload{Model: "googlenet", GPUs: 8, Batch: 16, Method: core.NCCL, HybridOWT: true, Faults: straggler}},
		goldenCase{"lenet/hybrid-owt/dgx2", core.Workload{Model: "lenet", GPUs: 16, Batch: 16, Method: core.NCCL, HybridOWT: true, Hardware: "dgx2"}},
	)
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// profileArtifacts runs the case and renders every artifact it pins.
func profileArtifacts(t *testing.T, w core.Workload) map[string]string {
	t.Helper()
	r, err := core.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"report":      string(report),
		"summary":     r.Profile.Summary(),
		"apiNames":    strings.Join(r.Profile.APINames(), "\n"),
		"kernelNames": strings.Join(r.Profile.KernelNames(), "\n"),
	}
}

// TestProfileGolden pins, per case, the report JSON bytes, the profile's
// nvprof-style summary, and the API and kernel name orders, plus two
// Chrome trace exports. Regenerate deliberately with -update.
func TestProfileGolden(t *testing.T) {
	got := map[string]map[string]string{}
	raw := map[string]map[string]string{}
	for _, c := range goldenCases() {
		arts := profileArtifacts(t, c.w)
		raw[c.name] = arts
		got[c.name] = map[string]string{}
		for k, v := range arts {
			got[c.name][k] = digest([]byte(v))
		}
	}

	// Traces carry every interval's track, stage and transfer label, which
	// the aggregate artifacts above do not show.
	for _, tc := range []goldenCase{
		{"lenet/trace/p2p", core.Workload{Model: "lenet", GPUs: 8, Batch: 32, Method: core.P2P, TraceIntervals: 20000}},
		{"lenet/trace/nccl", core.Workload{Model: "lenet", GPUs: 4, Batch: 32, Method: core.NCCL, TraceIntervals: 20000}},
	} {
		r, err := core.Run(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := r.Profile.ExportChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		got[tc.name] = map[string]string{"chromeTrace": digest(trace.Bytes())}
		raw[tc.name] = map[string]string{"chromeTrace": trace.String()}
	}

	if *updateProfiles {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(profileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profileGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(profileGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			t.Errorf("%s: pinned case no longer produced", n)
			continue
		}
		for k, d := range want[n] {
			if g[k] != d {
				t.Errorf("%s: %s changed; got:\n%s", n, k, clip(raw[n][k]))
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("produced %d cases, golden pins %d (rerun with -update)", len(got), len(want))
	}
}

// clip shortens an artifact for a failure message.
func clip(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}
