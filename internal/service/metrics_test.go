package service

import (
	"strings"
	"testing"
	"time"
)

// metricLine extracts the value of the first exposition line with the
// given prefix.
func metricLine(t *testing.T, text, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(line, prefix))
		}
	}
	t.Fatalf("metrics output missing %q:\n%s", prefix, text)
	return ""
}

// renderMetrics returns the server's /metrics exposition.
func renderMetrics(s *Server) string {
	var b strings.Builder
	s.metrics.WriteTo(&b)
	return b.String()
}

// The cumulative histogram renders monotone buckets with exact sum and
// count, and the in-flight gauge returns to zero after observe.
func TestMetricsHistogramAndInflight(t *testing.T) {
	svc := NewServer(Config{Workers: 1})
	defer svc.Close()
	m := svc.requestMetrics("/x")
	m.inflight.Add(1)
	out := renderMetrics(svc)
	if got := metricLine(t, out, `dgxsimd_inflight{path="/x"} `); got != "1" {
		t.Errorf("inflight during request = %s, want 1", got)
	}
	m.inflight.Add(-1)
	m.duration.Observe(3 * time.Millisecond)
	m.inflight.Add(1)
	m.inflight.Add(-1)
	m.duration.Observe(700 * time.Millisecond)
	svc.pool.panics.Add(2)
	svc.pool.queueWaitNs.Add(int64(1500 * time.Millisecond))
	out = renderMetrics(svc)

	cases := []struct{ prefix, want string }{
		{`dgxsimd_inflight{path="/x"} `, "0"},
		{`dgxsimd_request_duration_seconds_bucket{path="/x",le="0.001"} `, "0"},
		{`dgxsimd_request_duration_seconds_bucket{path="/x",le="0.005"} `, "1"},
		{`dgxsimd_request_duration_seconds_bucket{path="/x",le="0.5"} `, "1"},
		{`dgxsimd_request_duration_seconds_bucket{path="/x",le="1"} `, "2"},
		{`dgxsimd_request_duration_seconds_bucket{path="/x",le="+Inf"} `, "2"},
		{`dgxsimd_request_duration_seconds_sum{path="/x"} `, "0.703000"},
		{`dgxsimd_request_duration_seconds_count{path="/x"} `, "2"},
		{`dgxsimd_requests_total{path="/x"} `, "2"},
		{`dgxsimd_pool_panics_total `, "2"},
		{`dgxsimd_pool_queue_wait_seconds_total `, "1.500000"},
	}
	for _, c := range cases {
		if got := metricLine(t, out, c.prefix); got != c.want {
			t.Errorf("%s= %s, want %s", c.prefix, got, c.want)
		}
	}
}
