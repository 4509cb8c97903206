package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestFingerprintCoversEveryField perturbs each exported Workload field
// in turn and asserts the fingerprint changes. If a future field is
// added to Workload and (somehow) escapes the canonical encoding, this
// test fails — the guard against silently serving stale cached results.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Workload{Model: "lenet", GPUs: 2, Batch: 16, Method: NCCL, Images: 1000}
	baseFP := base.Fingerprint()
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			w := base
			fv := reflect.ValueOf(&w).Elem().Field(i)
			perturb(t, f.Name, fv)
			if got := w.Fingerprint(); got == baseFP {
				t.Errorf("perturbing %s did not change the fingerprint", f.Name)
			}
		})
	}
}

// TestKeyCoversEveryField is the Key's counterpart of the fingerprint
// guard: perturbing any exported Workload field changes the Key, and
// every field but the extrapolation-only Images and WeakScaling changes
// the compile key too.
func TestKeyCoversEveryField(t *testing.T) {
	base := Workload{Model: "lenet", GPUs: 2, Batch: 16, Method: NCCL, Images: 1000}
	baseKey, baseCompile := base.Key(), artifactKey(base.Normalize())
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			w := base
			perturb(t, f.Name, reflect.ValueOf(&w).Elem().Field(i))
			if w.Key() == baseKey {
				t.Errorf("perturbing %s did not change the Key", f.Name)
			}
			extrapolationOnly := f.Name == "Images" || f.Name == "WeakScaling"
			if same := artifactKey(w.Normalize()) == baseCompile; same != extrapolationOnly {
				t.Errorf("perturbing %s: compile key unchanged = %v, want %v", f.Name, same, extrapolationOnly)
			}
		})
	}
}

// FuzzWorkloadKey decodes two workloads from JSON, as the service does,
// and normalizes both. A Key must not depend on the spelling Normalize
// erases, equal Keys must mean equal Fingerprints, and for
// workloads that validate, equal Fingerprints must mean equal Keys: the
// in-process memos and the wire identity never disagree about which
// workloads are the same. The seeds spell equal plans differently
// (reversed link pairs, unsorted lists, no-op entries, explicit
// defaults). A failure's minimized input lands in
// testdata/fuzz/FuzzWorkloadKey.
func FuzzWorkloadKey(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"Model":"alexnet","GPUs":8,"Batch":16}`,
			`{"Model":"alexnet","GPUs":8,"Batch":16,"Method":"nccl","Images":262144,"Hardware":"dgx1","Protocol":"simple"}`},
		{`{"Model":"alexnet","GPUs":8,"Batch":16,"faults":{"failedLinks":[{"a":1,"b":0},{"a":3,"b":2}]}}`,
			`{"Model":"alexnet","GPUs":8,"Batch":16,"faults":{"failedLinks":[{"a":2,"b":3},{"a":0,"b":1}]}}`},
		{`{"Model":"resnet","GPUs":4,"Batch":32,"faults":{"stragglers":[{"gpu":3,"slowdown":1.5},{"gpu":1,"slowdown":2}]}}`,
			`{"Model":"resnet","GPUs":4,"Batch":32,"faults":{"stragglers":[{"gpu":1,"slowdown":2},{"gpu":3,"slowdown":1.5},{"gpu":0,"slowdown":1}]}}`},
		{`{"Model":"lenet","GPUs":2,"Batch":16,"faults":{"degradedLinks":[{"a":2,"b":0,"fraction":0.5}],"pcieContention":0.25}}`,
			`{"Model":"lenet","GPUs":2,"Batch":16,"faults":{"degradedLinks":[{"a":1,"b":3,"fraction":1},{"a":0,"b":2,"fraction":0.5}],"pcieContention":0.25}}`},
		{`{"Model":"lenet","GPUs":2,"Batch":16}`,
			`{"Model":"lenet","GPUs":2,"Batch":16,"faults":{"stragglers":[{"gpu":3,"slowdown":1}]}}`},
		{`{"Model":"lenet","GPUs":2,"Batch":16,"faults":{"failedLinks":[{"a":0,"b":1}]}}`,
			`{"Model":"lenet","GPUs":2,"Batch":16,"faults":{"pcieContention":0.5}}`},
		{`{"Model":"googlenet","GPUs":4,"Batch":16,"Images":8192}`,
			`{"Model":"googlenet","GPUs":4,"Batch":16,"Images":8192,"WeakScaling":true}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var wa, wb Workload
		if json.Unmarshal(a, &wa) != nil || json.Unmarshal(b, &wb) != nil {
			return
		}
		for _, w := range []Workload{wa, wb} {
			if w.Key() != w.Normalize().Key() {
				t.Fatalf("Key depends on the spelling Normalize erases: %+v", w)
			}
		}
		wa, wb = wa.Normalize(), wb.Normalize()
		sameKey, sameFP := wa.Key() == wb.Key(), wa.Fingerprint() == wb.Fingerprint()
		if sameKey && !sameFP {
			t.Fatalf("equal Keys, different Fingerprints:\n%+v\n%+v", wa, wb)
		}
		if sameFP && !sameKey && wa.Validate() == nil && wb.Validate() == nil {
			t.Fatalf("equal Fingerprints, different Keys:\n%+v\n%+v", wa, wb)
		}
	})
}

// perturb sets a field to a value distinct from the base workload's and
// from the canonicalized defaults (NCCL method, paper dataset size).
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "-perturbed")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 977)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Pointer:
		switch v.Interface().(type) {
		case *faults.Plan:
			v.Set(reflect.ValueOf(&faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}}))
		default:
			t.Fatalf("field %s has pointer type %v; teach perturb about it", name, v.Type())
		}
	default:
		t.Fatalf("field %s has kind %v; teach perturb about it", name, v.Kind())
	}
}

// Workloads Run treats identically must share a fingerprint.
func TestFingerprintCanonicalizesDefaults(t *testing.T) {
	zero := Workload{Model: "lenet", GPUs: 2, Batch: 16}
	explicit := Workload{Model: "lenet", GPUs: 2, Batch: 16, Method: NCCL, Images: 256 * 1024}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Error("zero Method/Images should fingerprint like the explicit defaults")
	}
	p2p := explicit
	p2p.Method = P2P
	if p2p.Fingerprint() == explicit.Fingerprint() {
		t.Error("p2p and nccl workloads must not collide")
	}
}

func TestFingerprintIsStableAcrossCalls(t *testing.T) {
	w := Workload{Model: "resnet", GPUs: 8, Batch: 32, Method: P2P, Async: true}
	if w.Fingerprint() != w.Fingerprint() {
		t.Error("fingerprint must be deterministic")
	}
	if len(w.Fingerprint()) != 64 {
		t.Errorf("fingerprint %q should be a sha256 hex digest", w.Fingerprint())
	}
}

func TestRunContext(t *testing.T) {
	r, err := RunContext(context.Background(), Workload{Model: "lenet", GPUs: 1, Batch: 16})
	if err != nil || r == nil {
		t.Fatalf("RunContext = %v, %v", r, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Workload{Model: "lenet", GPUs: 1, Batch: 16}); err != context.Canceled {
		t.Errorf("cancelled RunContext = %v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	if _, err := RunContext(ctx2, Workload{Model: "inception-v3", GPUs: 8, Batch: 16}); err == nil {
		t.Error("expired deadline should abort RunContext")
	}
}

func ExampleWorkload_Fingerprint() {
	a := Workload{Model: "lenet", GPUs: 4, Batch: 16}
	b := Workload{Model: "lenet", GPUs: 4, Batch: 16, Method: NCCL}
	fmt.Println(a.Fingerprint() == b.Fingerprint())
	// Output: true
}
