package obs

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRegistryKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("unwind.samples_accepted").Add(3)
	r.Counter("unwind.samples_accepted").Add(2)
	r.Gauge("stale.ladder.mean_match_quality").Set(0.85)
	h := r.Histogram("shard.worker_busy_ns")
	h.Observe(10)
	h.Observe(4)
	h.Observe(30)

	if got := r.Counter("unwind.samples_accepted").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.Gauge("stale.ladder.mean_match_quality").Value(); got != 0.85 {
		t.Errorf("gauge = %v", got)
	}
	snap := r.Snapshot()
	hv := snap["shard.worker_busy_ns"]
	if hv.Kind != kindHistogram || hv.Count != 3 || hv.Sum != 44 || hv.Min != 4 || hv.Max != 30 {
		t.Errorf("histogram snapshot = %+v", hv)
	}
	var names []string
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	want := []string{"shard.worker_busy_ns", "stale.ladder.mean_match_quality", "unwind.samples_accepted"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("snapshot names = %v, want %v", names, want)
	}
}

// A second kind for a taken name panics, naming the metric, and leaves the
// first registration (and the registry's lock) as they were.
func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(1)
	if msg := panicMessage(func() { r.Gauge("a.b") }); !strings.Contains(msg, `"a.b"`) {
		t.Fatalf("conflicting Gauge(\"a.b\"): panic %q, want one naming the metric", msg)
	}
	if got := r.Counter("a.b").Value(); got != 1 {
		t.Errorf("original counter clobbered: %d", got)
	}
	if mv, ok := r.Snapshot()["a.b"]; !ok || mv.Kind != kindCounter {
		t.Errorf("snapshot[a.b] = %+v, %v; want the counter", mv, ok)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("a.b").Add(1)
	r.Gauge("a.b").Set(1)
	r.Histogram("a.b").Observe(1)
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry leaked state")
	}
}

func TestCountersRaceFree(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("unwind.samples_accepted").Add(1)
				r.Histogram("shard.worker_busy_ns").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("unwind.samples_accepted").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Snapshot()["shard.worker_busy_ns"].Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{
		"c.x": {Kind: kindCounter, Value: 3},
		"g.x": {Kind: kindGauge, Gauge: 0.5},
		"h.x": {Kind: kindHistogram, Count: 2, Sum: 10, Min: 3, Max: 7},
	}
	b := Snapshot{
		"c.x": {Kind: kindCounter, Value: 4},
		"c.y": {Kind: kindCounter, Value: 1},
		"g.x": {Kind: kindGauge, Gauge: 0.9},
		"h.x": {Kind: kindHistogram, Count: 1, Sum: 1, Min: 1, Max: 1},
	}
	m := a.Merge(b)
	if m["c.x"].Value != 7 || m["c.y"].Value != 1 {
		t.Errorf("counters: %+v", m)
	}
	if m["g.x"].Gauge != 0.9 {
		t.Errorf("gauge max: %+v", m["g.x"])
	}
	h := m["h.x"]
	if h.Count != 3 || h.Sum != 11 || h.Min != 1 || h.Max != 7 {
		t.Errorf("histogram: %+v", h)
	}
}

func TestCatalogNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range catalogNames() {
		if !validMetricName(name) {
			t.Errorf("catalog name %q violates convention", name)
		}
		if seen[name] {
			t.Errorf("catalog name %q declared more than once", name)
		}
		seen[name] = true
	}
	if !seen[MStreamDistinctSamples] {
		t.Errorf("%s is published by both sample streams but not cataloged", MStreamDistinctSamples)
	}
	if seen["quality.block_overlap"] {
		t.Error("quality.block_overlap has had no publisher since PR 21 and is back in the catalog")
	}
	if !isTimingMetric(MShardWorkerBusyNS) {
		t.Error("worker_busy_ns not recognized as timing metric")
	}
	if isTimingMetric(MUnwindSamplesAccepted) {
		t.Error("samples_accepted misclassified as timing metric")
	}
}

func TestValidMetricName(t *testing.T) {
	good := []string{"a.b", "unwind.ranges_truncated", "experiment.fig6.wl_1.csspgo_impr_pct"}
	bad := []string{"", "a", "a.", ".b", "A.b", "a b.c", "a..b", "a.b-c"}
	for _, n := range good {
		if !validMetricName(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range bad {
		if validMetricName(n) {
			t.Errorf("%q accepted", n)
		}
	}
}
