package stats

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2*time.Second {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Std != time.Second {
		t.Errorf("std = %v", s.Std)
	}
	if s.N != 2 {
		t.Errorf("n = %d", s.N)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Mean != 0 || s.Std != 0 || s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeConstant(t *testing.T) {
	s := Summarize([]time.Duration{5, 5, 5, 5})
	if s.Std != 0 {
		t.Errorf("constant series std = %v", s.Std)
	}
}

func TestRepetitionsAnchoredAndDeterministic(t *testing.T) {
	draw := func() []float64 {
		j := sim.NewJitter(3, 0.05)
		return []float64{j.Factor(), j.Factor(), j.Factor(), j.Factor()}
	}
	a := Repetitions(time.Second, draw())
	b := Repetitions(time.Second, draw())
	if len(a) != 5 {
		t.Fatalf("len = %d", len(a))
	}
	if a[0] != time.Second {
		t.Error("first repetition should be the exact value")
	}
	// The factors scale as a jitter stream's Scale calls would.
	j := sim.NewJitter(3, 0.05)
	for i := range a {
		if a[i] != b[i] {
			t.Error("same seed must reproduce repetitions")
		}
		if i > 0 && a[i] != j.Scale(time.Second) {
			t.Errorf("repetition %d = %v, not the stream's Scale", i, a[i])
		}
	}
	if got := Repetitions(time.Second, nil); len(got) != 1 || got[0] != time.Second {
		t.Errorf("no factors: %v, want the exact value alone", got)
	}
}

func TestSampleString(t *testing.T) {
	s := Sample{Mean: 1234 * time.Millisecond, Std: 12 * time.Millisecond, N: 5}
	if got := s.String(); got != "1.234s ±12ms" {
		t.Errorf("string = %q", got)
	}
}

// Quantile must use the nearest-rank definition. The flooring bug this
// pins against: over a 2-sample window, int(0.99*(2-1)) = 0, so p99
// reported the *minimum* latency.
func TestQuantileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.99, 0},
		{"single sample", []time.Duration{ms(7)}, 0.5, ms(7)},
		{"p99 of two samples is the max", []time.Duration{ms(1), ms(100)}, 0.99, ms(100)},
		{"p90 of two samples is the max", []time.Duration{ms(1), ms(100)}, 0.9, ms(100)},
		{"p50 of two samples is the lower", []time.Duration{ms(1), ms(100)}, 0.5, ms(1)},
		{"p50 of four samples", []time.Duration{ms(1), ms(2), ms(3), ms(4)}, 0.5, ms(2)},
		{"p99 of 100 samples", mkRange(100), 0.99, ms(99)},
		{"p90 of 10 samples", mkRange(10), 0.9, ms(9)},
		{"q=0 clamps to the minimum", []time.Duration{ms(1), ms(2)}, 0, ms(1)},
		{"q=1 is the maximum", []time.Duration{ms(1), ms(2), ms(3)}, 1, ms(3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Quantile(c.sorted, c.q); got != c.want {
				t.Errorf("Quantile(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
			}
		})
	}
}

// mkRange returns n sorted samples 1ms..n ms.
func mkRange(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}
