// The body memo: one bounded memo in front of the strict decoder, keyed
// by (endpoint, exact body bytes). The paper's use case is asking the
// same what-if question many times, and a repeated question arrives as
// the same bytes; a repeat skips the decoder, Validate, Normalize and
// Fingerprint on the replica, and the decode the gateway runs to route
// it. The memo is process-wide: Contract consults it too, so a gateway
// and a replica sharing a process share it.
package service

import (
	"bytes"
	"hash/maphash"

	"repro/internal/core"
	"repro/internal/memo"
)

const (
	// bodyMemoMax bounds the memo's entries: the default result cache's
	// size, so the memo holds a repeated body for every result the cache
	// can serve. An entry costs about 1 KiB, so a daemon that only ever
	// sees new bodies retains about 1 MiB for it.
	bodyMemoMax = memo.DefaultMax
	// bodyMemoMaxBody is the largest body the memo stores. Workload,
	// sweep and optimize bodies are a few hundred bytes, a fault plan
	// adds a few hundred more; larger bodies (fleet specs with explicit
	// traces) are decoded every time. With bodyMemoMax it bounds the
	// stored body bytes at 4 MiB.
	bodyMemoMaxBody = 4 << 10
)

// decoded is a body that passed its endpoint's strict decoder: the value
// the memo stores and every later copy of the same bytes shares, so it is
// immutable once built.
type decoded struct {
	body []byte // the exact bytes a later body must equal to share it
	key  string // the routing key Contract gives the body

	// Workload bodies (/v1/simulate, /v1/compare, /v1/validate) only.
	req     workloadRequest // as decoded
	invalid error           // req's Validate error; a stored body has none
	wl      core.Workload   // req's workload, trace-defaulted and normalized
	fp      string          // wl.Fingerprint(): the result-cache key
}

// bodyKey keys the memo: the endpoint pattern and a seeded hash of the
// body. The hash only picks the slot; a hit must also match the stored
// bytes, so a collision is a miss, never another body's request.
type bodyKey struct {
	pattern string
	sum     uint64
}

// bodyMemo is the memo and its hash seed.
type bodyMemo struct {
	seed maphash.Seed
	g    *memo.Group[bodyKey, *decoded]
}

func newBodyMemo() *bodyMemo {
	return &bodyMemo{seed: maphash.MakeSeed(), g: memo.New[bodyKey, *decoded](bodyMemoMax)}
}

func (m *bodyMemo) key(pattern string, body []byte) bodyKey {
	return bodyKey{pattern, maphash.Bytes(m.seed, body)}
}

// bodies is the process-wide body memo.
var bodies = newBodyMemo()

// DecodeMemoStats snapshots the process-wide body memo's counters (both
// daemons export them on /metrics).
func DecodeMemoStats() memo.Stats { return bodies.g.Stats() }

// resolve returns body as endpoint e decodes it: the stored value for
// bytes seen before, or a fresh decode, stored only when the body passed
// the whole contract — decode, trailing data, schema version and, for a
// workload body, Validate. A body Validate rejects still returns its
// decoded value (it routes, and /v1/validate reports it) but is decoded
// again next time; a decode error is returned and never stored.
func (m *bodyMemo) resolve(e endpointDef, body []byte) (*decoded, error) {
	if len(body) > bodyMemoMaxBody {
		return decodeBody(e, body)
	}
	k := m.key(e.pattern, body)
	if d, ok := m.g.Lookup(k); ok && bytes.Equal(d.body, body) {
		return d, nil
	}
	d, err := decodeBody(e, body)
	if err == nil && d.invalid == nil {
		d.body = bytes.Clone(body)
		m.g.Add(k, d)
	}
	return d, err
}

// decodeBody is resolve without the memo: the strict decode, then the
// routing key and, for a workload body, its validation, its normalized
// workload and its fingerprint. Sweep, optimize and cluster requests
// carry slices and are not kept; their value holds only the key.
func decodeBody(e endpointDef, body []byte) (*decoded, error) {
	req, err := e.decode(body)
	if err != nil {
		return nil, err
	}
	wr, ok := req.(workloadRequest)
	if !ok {
		if wl := req.routed(); wl != nil {
			return &decoded{key: wl.Fingerprint()}, nil
		}
		return &decoded{key: bytesKey(body)}, nil
	}
	d := &decoded{req: wr}
	if d.invalid = wr.Validate(); d.invalid != nil {
		d.key = wr.Fingerprint()
		return d, nil
	}
	d.wl = wr.workload().Normalize()
	d.fp = d.wl.Fingerprint()
	// The routing key is the untraced workload's fingerprint, so a traced
	// body routes with its untraced twin. Tracing changes the workload
	// only when it defaults TraceIntervals.
	d.key = d.fp
	if d.wl.TraceIntervals != wr.TraceIntervals {
		d.key = wr.Fingerprint()
	}
	return d, nil
}
