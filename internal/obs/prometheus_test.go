package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.requests").Add(7)
	reg.Gauge("pipeline.speedup").Set(1.25)
	h := reg.Histogram("serve.swap_latency_ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	out := string(renderPrometheus(reg.Snapshot()))
	for _, want := range []string{
		"# TYPE pipeline_speedup gauge\npipeline_speedup 1.25\n",
		"# TYPE serve_requests counter\nserve_requests 7\n",
		"# TYPE serve_swap_latency_ns summary\n",
		"serve_swap_latency_ns{quantile=\"0.5\"} 63\n",
		"serve_swap_latency_ns{quantile=\"0.95\"} 100\n",
		"serve_swap_latency_ns{quantile=\"0.99\"} 100\n",
		"serve_swap_latency_ns_sum 5050\n",
		"serve_swap_latency_ns_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: same snapshot renders byte-identically.
	if !bytes.Equal(renderPrometheus(reg.Snapshot()), renderPrometheus(reg.Snapshot())) {
		t.Fatal("render not deterministic")
	}
}

// Dotted names map onto the Prometheus name charset on the way out.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.swap_latency_ns":   "serve_swap_latency_ns",
		"quality.context-overlap": "quality_context_overlap",
		"9lives":                  "_lives",
	}
	for in, want := range cases {
		snap := Snapshot{in: MetricValue{Kind: kindCounter, Value: 1}}
		if got, line := string(renderPrometheus(snap)), want+" 1\n"; !strings.HasSuffix(got, "\n"+line) {
			t.Errorf("metric %q rendered as %q, want a sample line %q", in, got, line)
		}
	}
}
