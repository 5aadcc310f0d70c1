package main

import "testing"

func TestParseMetrics(t *testing.T) {
	text := []byte(`# HELP mdq_requests_total Requests by endpoint and status code.
# TYPE mdq_requests_total counter
mdq_requests_total{code="200",endpoint="/query"} 12
mdq_requests_total{code="429",endpoint="/query"} 3
mdq_requests_total{code="200",endpoint="/optimize"} 5
mdq_optimize_seconds_sum 1.5
mdq_optimize_seconds_count 12
mdq_plan_cache_serves_total{class="miss"} 1
`)
	s := parseMetrics(text)
	if got := s.sum("mdq_requests_total", `endpoint="/query"`); got != 15 {
		t.Errorf("/query requests = %v, want 15", got)
	}
	if got := s.sum("mdq_requests_total", `endpoint="/query"`, `code="200"`); got != 12 {
		t.Errorf("/query 200s = %v, want 12", got)
	}
	if got := s.mean("mdq_optimize_seconds"); got != 0.125 {
		t.Errorf("optimize mean = %v, want 0.125", got)
	}
	if got := s.mean("mdq_execute_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
	later := parseMetrics([]byte("mdq_plan_cache_serves_total{class=\"miss\"} 4\nmdq_plan_cache_serves_total{class=\"template\"} 9\n"))
	d := later.sub(s)
	if d.sum("mdq_plan_cache_serves_total", `class="miss"`) != 3 || d.sum("mdq_plan_cache_serves_total") != 12 {
		t.Errorf("delta = %v", d)
	}
}
