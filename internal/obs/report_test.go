package obs

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	tr := newTraceWithClock(stepClock(time.Millisecond))
	b := tr.Span("build")
	b.Span("irgen").End()
	b.End()
	reg := NewRegistry()
	reg.Counter(MUnwindSamplesAccepted).Add(42)
	reg.Counter(MShardTailGraphBuildNS).Add(12345)
	reg.Gauge(MQualityContextOverlap).Set(0.97)

	r := NewReport("test")
	r.Config["probes"] = true
	r.AddTrace(tr)
	r.AddMetrics(reg)
	r.Quality = map[string]float64{"block_overlap": 0.97}
	return r
}

func TestReportEncodeDeterministic(t *testing.T) {
	a, err := sampleReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of the same report differ:\n%s\n----\n%s", a, b)
	}
	if _, err := DecodeReport(a); err != nil {
		t.Fatalf("encoded report does not validate: %v", err)
	}
}

func TestNormalizeZeroesTimings(t *testing.T) {
	r := sampleReport()
	r.Normalize()
	for _, st := range r.Stages {
		if st.WallNS != 0 || st.Count != 0 {
			t.Errorf("stage %q not normalized: %+v", st.Name, st)
		}
	}
	if mv := r.Metrics[MShardTailGraphBuildNS]; mv.Value != 0 || mv.Kind != kindCounter {
		t.Errorf("_ns metric not normalized: %+v", mv)
	}
	if r.Metrics[MUnwindSamplesAccepted].Value != 42 {
		t.Error("non-timing metric was clobbered by Normalize")
	}
	if r.Quality["block_overlap"] != 0.97 {
		t.Error("quality score changed by Normalize")
	}
}

// A clone encodes like its source, and normalizing or editing it leaves the
// source untouched.
func TestReportCloneIsDeep(t *testing.T) {
	r := sampleReport()
	r.Metrics["h"] = MetricValue{Kind: kindHistogram, Count: 1, Buckets: []int64{1}}
	want, _ := r.Encode()
	c := r.Clone()
	if got, _ := c.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("clone encodes differently:\n%s\n----\n%s", got, want)
	}
	c.Normalize()
	c.Config["probes"] = false
	c.Quality["block_overlap"] = 0
	c.Metrics["h"].Buckets[0] = 9
	if got, _ := r.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("editing the clone changed the source:\n%s\n----\n%s", got, want)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteFile(path, sampleReport()); err != nil {
		t.Fatal(err)
	}
	r, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tool != "test" || r.Metrics[MUnwindSamplesAccepted].Value != 42 {
		t.Fatalf("round trip lost data: %+v", r)
	}
}

func TestValidateReportRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", "nope"},
		{"wrong schema", `{"schema":"other/v9","tool":"t"}`},
		{"empty tool", `{"schema":"csspgo-run-report/v1","tool":""}`},
		{"dup stage", `{"schema":"csspgo-run-report/v1","tool":"t","stages":[{"name":"a","wall_ns":1,"count":1},{"name":"a","wall_ns":2,"count":1}]}`},
		{"negative wall", `{"schema":"csspgo-run-report/v1","tool":"t","stages":[{"name":"a","wall_ns":-1,"count":1}]}`},
		{"bad metric name", `{"schema":"csspgo-run-report/v1","tool":"t","metrics":{"NotDotted":{"kind":"counter"}}}`},
		{"bad metric kind", `{"schema":"csspgo-run-report/v1","tool":"t","metrics":{"a.b":{"kind":"summary"}}}`},
	}
	for _, c := range cases {
		if _, err := DecodeReport([]byte(c.data)); err == nil {
			t.Errorf("%s: validated, want error", c.name)
		}
	}
}

func TestFormatMentionsEverySection(t *testing.T) {
	out := sampleReport().Format()
	for _, want := range []string{"run report: test", "config:", "stages:", "build/irgen", "metrics:", "unwind.samples_accepted", "quality:", "block_overlap"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestDiffReportsHighlightsRegressions(t *testing.T) {
	a := NewReport("t")
	a.Stages = []Stage{{Name: "build", WallNS: 1_000_000, Count: 1}}
	a.Metrics[MUnwindSamplesAccepted] = MetricValue{Kind: kindCounter, Value: 10}
	a.Quality = map[string]float64{"block_overlap": 0.95}

	b := NewReport("t")
	b.Stages = []Stage{{Name: "build", WallNS: 2_000_000, Count: 1}}
	b.Metrics[MUnwindSamplesAccepted] = MetricValue{Kind: kindCounter, Value: 12}
	b.Quality = map[string]float64{"block_overlap": 0.50}

	out := DiffReportsThreshold(a, b, DefaultRegressionThreshold).Text
	if !strings.Contains(out, "REGRESSED") {
		t.Fatalf("no regression highlighted:\n%s", out)
	}
	if !strings.Contains(out, "+100.0%") {
		t.Errorf("stage slowdown not reported:\n%s", out)
	}
	if !strings.Contains(out, "unwind.samples_accepted") || !strings.Contains(out, "+20.0%") {
		t.Errorf("metric delta not reported:\n%s", out)
	}

	// Identical reports: no regression, no metric noise.
	out = DiffReportsThreshold(a, a, DefaultRegressionThreshold).Text
	if strings.Contains(out, "REGRESSED") {
		t.Errorf("self-diff flagged a regression:\n%s", out)
	}
	if !strings.Contains(out, "no metric changed") {
		t.Errorf("self-diff reported metric churn:\n%s", out)
	}
}
