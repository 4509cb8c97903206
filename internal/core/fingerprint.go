package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint returns a deterministic key identifying the simulation a
// workload describes. Workloads that Run treats identically map to the
// same key: the struct is canonicalized through Normalize (zero Method
// becomes NCCL, zero Images the paper's dataset size) before hashing.
//
// The hash covers the canonical JSON encoding of the whole struct, so
// any exported field added to Workload automatically perturbs the key —
// a stale cache cannot survive a Workload extension unnoticed (the
// perturbation test in fingerprint_test.go enforces this).
//
// The simulator is fully deterministic (seeded jitter), which makes
// memoization by fingerprint exact, not approximate.
//
// Fingerprint is the wire identity: the service's response cache, the
// persisted snapshot file names and the gateway's ring all key on it.
// In-process memos key on Key, which identifies the same workloads
// without the encoding and the hash.
func (w Workload) Fingerprint() string {
	b, err := json.Marshal(w.Normalize())
	if err != nil {
		// Workload is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("core: marshal workload: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Key is a workload's identity by value, for in-process maps: the
// normalized workload with its fault plan replaced by the plan's
// canonical JSON. Equal Keys mean equal Fingerprints, and two valid
// workloads with equal Fingerprints have equal Keys (FuzzWorkloadKey
// checks both). A healthy workload's Key costs no encoding or hash.
type Key struct {
	w    Workload // normalized, Faults nil
	plan string   // the normalized plan's JSON; "" when healthy
}

// Key returns the workload's Key.
func (w Workload) Key() Key {
	w = w.Normalize()
	var plan string
	if w.Faults != nil {
		b, err := json.Marshal(w.Faults)
		if err != nil {
			panic(fmt.Sprintf("core: marshal fault plan: %v", err))
		}
		plan = string(b)
		w.Faults = nil
	}
	return Key{w: w, plan: plan}
}
