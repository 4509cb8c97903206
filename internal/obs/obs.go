// Package obs is the daemons' observability kit: request ids, a span
// recorder carried through context, a bounded store of recent request
// traces, and the metrics registry both dgxsimd and dgxsimgw render
// /metrics from.
//
// The recorder mirrors, at the service layer, what internal/profiler does
// for the simulated hardware: where the profiler answers "where did the
// simulated epoch's time go" (the paper's nvprof breakdowns), obs answers
// "where did this *request's* wall-clock time go" — decode, cache lookup,
// queue wait, simulate, encode. The two meet in the /v1/trace endpoint,
// which renders both on one timeline.
//
// Everything here is stdlib-only and safe for concurrent use. A nil
// *Trace is a valid no-op recorder, so instrumented code paths never need
// to check whether tracing is enabled:
//
//	defer obs.FromContext(ctx).StartSpan("simulate")()
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idFallback numbers ids when the system randomness source fails (it
// cannot on any platform we run, but an id generator must not).
var idFallback atomic.Uint64

// NewID returns a fresh 16-hex-character request id. Both buffers live
// on the stack: the returned string is the id's only allocation.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := idFallback.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// Span is one timed step of a request, offset from the trace's start.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Attachment is an arbitrary value a code path hangs on the trace — the
// service attaches each simulated cell's *profiler.Profile so /v1/trace
// can render the inner FP/BP/WU stages next to the service spans.
type Attachment struct {
	Label string
	Value any
}

// Trace records the spans (and attachments) of one request. All methods
// are safe for concurrent use and no-ops on a nil receiver.
type Trace struct {
	ID    string
	Began time.Time

	mu          sync.Mutex
	spans       []Span
	attachments []Attachment
	// first backs spans until a request records more than a cache hit's
	// handful, so a hit's trace grows no slice.
	first [spansPresized]Span
}

// spansPresized is how many spans a trace holds before its span slice
// first grows: a simulate hit records decode, cache-lookup and encode; a
// miss adds queue-wait, simulate and serialize.
const spansPresized = 6

// NewTrace starts an empty trace anchored at now.
func NewTrace(id string) *Trace {
	t := &Trace{ID: id, Began: time.Now()}
	t.spans = t.first[:0]
	return t
}

// StartSpan begins a named span and returns the function that ends it:
//
//	end := tr.StartSpan("decode")
//	... work ...
//	end()
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, start, time.Now()) }
}

// AddSpan records one completed span by its wall-clock endpoints.
func (t *Trace) AddSpan(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.Began), Dur: end.Sub(start)})
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dur sums the durations of spans named name, including prefixed
// instances ("cell[3] simulate" counts toward Dur("simulate")) — the
// per-cell attribution a fanned-out sweep records.
func (t *Trace) Dur(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name || strings.HasSuffix(s.Name, " "+name) {
			d += s.Dur
		}
	}
	return d
}

// Attach hangs a labeled value on the trace.
func (t *Trace) Attach(label string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attachments = append(t.attachments, Attachment{Label: label, Value: v})
}

// Attachments returns a copy of the attachments in attach order.
func (t *Trace) Attachments() []Attachment {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Attachment(nil), t.attachments...)
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil (a valid no-op
// recorder) when the context carries none.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Store retains the most recent traces by request id, evicting the
// oldest once full (FIFO by insertion: a request's trace is complete
// when stored, so recency-of-use promotion would only let a polling
// client pin dead entries).
type Store struct {
	mu    sync.Mutex
	max   int
	order []string
	items map[string]*Trace
}

// DefaultStoreSize bounds a Store built with max <= 0.
const DefaultStoreSize = 256

// NewStore returns a store retaining at most max traces (<= 0: the
// default 256).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultStoreSize
	}
	return &Store{max: max, items: make(map[string]*Trace, max)}
}

// Put stores a trace under its id, evicting the oldest when full.
// Re-storing an id refreshes the value without duplicating its slot.
func (s *Store) Put(t *Trace) {
	if t == nil || t.ID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[t.ID]; ok {
		s.items[t.ID] = t
		return
	}
	if len(s.order) >= s.max {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.items, oldest)
	}
	s.order = append(s.order, t.ID)
	s.items[t.ID] = t
}

// Get returns the stored trace for an id.
func (s *Store) Get(id string) (*Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.items[id]
	return t, ok
}

// Len reports the number of retained traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
