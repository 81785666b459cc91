package obs

import (
	"reflect"
	"testing"
)

// Quantiles derive from log2 buckets: the estimate is the bucket upper
// bound, clamped to the observed range, so it is deterministic and exact to
// within one power of two.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("a.lat")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	mv := r.Snapshot()["a.lat"]
	if mv.Count != 100 || mv.Min != 1 || mv.Max != 100 {
		t.Fatalf("histogram summary: %+v", mv)
	}
	// p50 lands in bucket [32,63] -> 63; p95/p99 land in the last bucket,
	// whose upper bound clamps to the observed max.
	if mv.P50 != 63 || mv.P95 != 100 || mv.P99 != 100 {
		t.Errorf("quantiles p50=%d p95=%d p99=%d, want 63/100/100", mv.P50, mv.P95, mv.P99)
	}
	if len(mv.Buckets) == 0 {
		t.Error("snapshot lost the raw buckets")
	}
}

func TestHistogramQuantileSingleValue(t *testing.T) {
	r := NewRegistry()
	r.Histogram("a.lat").Observe(42)
	mv := r.Snapshot()["a.lat"]
	if mv.P50 != 42 || mv.P95 != 42 || mv.P99 != 42 {
		t.Errorf("single observation quantiles: %+v", mv)
	}
}

// Merging snapshot halves must reproduce the single-registry quantiles —
// the shard-aggregation invariant extended to p50/p95/p99.
func TestSnapshotMergeRecomputesQuantiles(t *testing.T) {
	whole, lo, hi := NewRegistry(), NewRegistry(), NewRegistry()
	for v := int64(1); v <= 200; v++ {
		whole.Histogram("a.lat").Observe(v)
		if v <= 100 {
			lo.Histogram("a.lat").Observe(v)
		} else {
			hi.Histogram("a.lat").Observe(v)
		}
	}
	merged := lo.Snapshot().Merge(hi.Snapshot())
	if !reflect.DeepEqual(merged["a.lat"], whole.Snapshot()["a.lat"]) {
		t.Errorf("merged quantiles diverge from whole:\n%+v\n%+v",
			merged["a.lat"], whole.Snapshot()["a.lat"])
	}
}

// Normalize must keep zeroing _ns metrics entirely — including the new
// buckets and quantile fields — so identical runs stay byte-identical.
func TestNormalizeZeroesHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(MServeSwapLatencyNS).Observe(12345)
	reg.Histogram("a.depth").Observe(7)
	rep := NewReport("t")
	rep.AddMetrics(reg)
	rep.Normalize()
	mv := rep.Metrics[MServeSwapLatencyNS]
	if mv.Kind != kindHistogram {
		t.Fatalf("normalized _ns histogram lost its kind: %+v", mv)
	}
	if mv.Count != 0 || mv.Sum != 0 || mv.P50 != 0 || mv.P95 != 0 || mv.P99 != 0 || mv.Buckets != nil {
		t.Errorf("_ns histogram not fully zeroed: %+v", mv)
	}
	if kept := rep.Metrics["a.depth"]; kept.Count != 1 || kept.P50 != 7 {
		t.Errorf("non-timing histogram clobbered: %+v", kept)
	}
}

// DiffReportsThreshold counts REGRESSED flags and honors the threshold:
// timing metrics regress upward, quality metrics downward.
func TestDiffReportsThresholdRegressions(t *testing.T) {
	a := NewReport("t")
	a.Stages = []Stage{{Name: "build", WallNS: 1_000_000, Count: 1}}
	a.Metrics[MShardWorkerBusyNS] = MetricValue{Kind: kindCounter, Value: 100}
	a.Metrics[MQualityContextOverlap] = MetricValue{Kind: kindGauge, Gauge: 0.9}
	b := NewReport("t")
	b.Stages = []Stage{{Name: "build", WallNS: 3_000_000, Count: 1}}
	b.Metrics[MShardWorkerBusyNS] = MetricValue{Kind: kindCounter, Value: 150}
	b.Metrics[MQualityContextOverlap] = MetricValue{Kind: kindGauge, Gauge: 0.5}

	res := DiffReportsThreshold(a, b, 0.10)
	if res.Regressions != 3 {
		t.Errorf("regressions = %d, want 3 (stage + timing metric + quality metric):\n%s",
			res.Regressions, res.Text)
	}
	// A looser threshold forgives the timing metric's +50% and the quality
	// metric's -44%, leaving only the +200% stage.
	res = DiffReportsThreshold(a, b, 0.60)
	if res.Regressions != 1 {
		t.Errorf("regressions at 60%% = %d, want 1:\n%s", res.Regressions, res.Text)
	}
	if res = DiffReportsThreshold(a, a, 0.10); res.Regressions != 0 {
		t.Errorf("self-diff regressions = %d:\n%s", res.Regressions, res.Text)
	}
}
