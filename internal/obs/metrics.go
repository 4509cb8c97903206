package obs

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process's metric series, rendered in the Prometheus text
// exposition format. Each series is registered once, with fixed labels
// given as key, value pairs, when the code that updates it is wired up;
// the returned handle is a bare atomic, so the request path takes no
// lock and does no lookup. Values another package already owns (cache,
// pool and snapshot-store counters) are registered with Func and read at
// render time. Registering the same name and labels twice is a bug and
// panics.
type Registry struct {
	mu     sync.Mutex
	series []func(b []byte) []byte // renderers, in registration order
	keys   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{keys: map[string]bool{}} }

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Histogram counts observed durations into fixed buckets, exposed in
// seconds as the cumulative _bucket, _sum and _count series.
type Histogram struct {
	bounds []float64 // bucket upper bounds in seconds, ascending
	// counts[i] holds the observations in (bounds[i-1], bounds[i]]; the
	// last slot holds those above every bound.
	counts []atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Counter registers a counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	c := &Counter{}
	r.Func(name, func() float64 { return float64(c.Load()) }, labels...)
	return c
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	g := &Gauge{}
	r.Func(name, func() float64 { return float64(g.v.Load()) }, labels...)
	return g
}

// Func registers a series whose value fn reads at render time.
func (r *Registry) Func(name string, fn func() float64, labels ...string) {
	key := seriesKey(name, labels...)
	r.register(key, func(b []byte) []byte { return appendLine(b, key, fn()) })
}

// Histogram registers a histogram with the given ascending bucket upper
// bounds in seconds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	buckets := make([]string, len(bounds)+1)
	for i := range buckets {
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		buckets[i] = seriesKey(name+"_bucket", append(labels[:len(labels):len(labels)], "le", le)...)
	}
	sum, count := seriesKey(name+"_sum", labels...), seriesKey(name+"_count", labels...)
	r.register(seriesKey(name, labels...), func(b []byte) []byte {
		var cum uint64
		for i, key := range buckets {
			cum += h.counts[i].Load()
			b = appendLine(b, key, float64(cum))
		}
		b = appendLine(b, sum, time.Duration(h.sum.Load()).Seconds())
		return appendLine(b, count, float64(cum))
	})
	return h
}

func (r *Registry) register(key string, render func(b []byte) []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys[key] {
		panic("obs: series " + key + " registered twice")
	}
	r.keys[key] = true
	r.series = append(r.series, render)
}

// WriteTo renders every series in registration order. Func values are
// read outside the registry's lock.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	series := r.series
	r.mu.Unlock()
	var b []byte
	for _, render := range series {
		b = render(b)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ServeHTTP serves the rendered registry as plain text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	r.WriteTo(w)
}

// seriesKey renders a series' exposition key: the bare name, or
// name{k1="v1",k2="v2"} with each label value Go-quoted.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	sep := "{"
	for i := 0; i < len(labels); i += 2 {
		name += sep + labels[i] + "=" + strconv.Quote(labels[i+1])
		sep = ","
	}
	return name + "}"
}

// appendLine appends one `key value` line. Whole values print as
// integers; fractional ones (seconds) to the microsecond.
func appendLine(b []byte, key string, v float64) []byte {
	prec := 6
	if v == math.Trunc(v) {
		prec = 0
	}
	b = append(append(b, key...), ' ')
	return append(strconv.AppendFloat(b, v, 'f', prec, 64), '\n')
}
