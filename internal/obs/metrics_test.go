package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// The exposition lists series in registration order, quotes label values
// as Go strings, prints whole values as integers and seconds to the
// microsecond, and renders a histogram as cumulative buckets plus _sum
// and _count.
func TestRegistryRendersExposition(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("req_total", "path", "/a")
	r.Func("up_seconds", func() float64 { return 1.25 })
	b := r.Counter("req_total", "path", `/b"q`)
	g := r.Gauge("inflight")
	h := r.Histogram("dur_seconds", []float64{0.001, 0.5}, "path", "/a")
	u := r.Histogram("sim_seconds", []float64{1})
	a.Add(1)
	b.Add(3)
	g.Add(2)
	g.Add(-1)
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	u.Observe(time.Second)

	want := `req_total{path="/a"} 1
up_seconds 1.250000
req_total{path="/b\"q"} 3
inflight 1
dur_seconds_bucket{path="/a",le="0.001"} 1
dur_seconds_bucket{path="/a",le="0.5"} 2
dur_seconds_bucket{path="/a",le="+Inf"} 3
dur_seconds_sum{path="/a"} 1.003000
dur_seconds_count{path="/a"} 3
sim_seconds_bucket{le="1"} 1
sim_seconds_bucket{le="+Inf"} 1
sim_seconds_sum 1
sim_seconds_count 1
`
	if got := render(r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" || rec.Body.String() != want {
		t.Errorf("ServeHTTP: Content-Type %q, body:\n%s", ct, rec.Body.String())
	}
}

// Registering a series twice is a wiring bug.
func TestRegistryRejectsDuplicates(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"same series": func(r *Registry) { r.Counter("x_total", "path", "/a") },
		"same histogram": func(r *Registry) {
			r.Histogram("h_seconds", []float64{1})
		},
		"counter as gauge": func(r *Registry) { r.Gauge("x_total", "path", "/a") },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("x_total", "path", "/a")
			r.Histogram("h_seconds", []float64{1})
			defer func() {
				if recover() == nil {
					t.Error("registration did not panic")
				}
			}()
			register(r)
		})
	}
}

// Updates and renders race-free under concurrent use (run with -race),
// and no update is lost.
func TestRegistryObserveRenderConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, n = 4, 1024
	type series struct {
		c *Counter
		g *Gauge
		h *Histogram
	}
	var paths [2]series
	for i := range paths {
		p := fmt.Sprintf("/p%d", i)
		paths[i] = series{
			c: r.Counter("errors_total", "path", p),
			g: r.Gauge("inflight", "path", p),
			h: r.Histogram("dur_seconds", []float64{0.001, 0.01}, "path", p),
		}
	}
	var observers sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		observers.Add(1)
		go func(s series) {
			defer observers.Done()
			for i := 0; i < n; i++ {
				s.g.Add(1)
				s.h.Observe(time.Duration(i) * time.Microsecond)
				if i%7 == 0 {
					s.c.Add(1)
				}
				s.g.Add(-1)
			}
		}(paths[w%2])
	}
	stop := make(chan struct{})
	var renderer sync.WaitGroup
	renderer.Add(1)
	go func() {
		defer renderer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = render(r)
			}
		}
	}()
	observers.Wait()
	close(stop)
	renderer.Wait()
	out := render(r)
	for _, line := range []string{
		fmt.Sprintf(`dur_seconds_count{path="/p0"} %d`, goroutines/2*n),
		fmt.Sprintf(`errors_total{path="/p1"} %d`, goroutines/2*((n+6)/7)),
		`inflight{path="/p0"} 0`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}
