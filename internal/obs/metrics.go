package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric's type.
type Kind string

const (
	kindCounter   Kind = "counter"
	kindGauge     Kind = "gauge"
	kindHistogram Kind = "histogram"
)

// Registry is the unified metric namespace for one run. Handles are
// get-or-create, and the create path checks the name once (see
// checkNewName): a malformed name, a second kind for a taken name, or an
// uncataloged name in a reserved namespace is a programming error, so it
// panics where it is made rather than surfacing later in a report.
//
// All handles are safe for concurrent use; counters are atomic so shard
// workers aggregate race-free under -race.
type Registry struct {
	// epochMu fences snapshot epochs: writers updating a counter family that
	// must be observed together hold it shared (Grouped), Snapshot holds it
	// exclusive — so a snapshot never lands between two updates of one
	// family (a torn read). Lock order is epochMu before mu.
	epochMu  sync.RWMutex
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	kinds    map[string]Kind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		kinds:    map[string]Kind{},
	}
}

// checkNewName panics, naming the metric, unless name may be registered
// for the first time as kind: it must not be taken by another kind, and it
// must be cataloged or else be a well-formed name outside the reserved
// namespaces. Cataloged names cost one set lookup. Called with r.mu held.
func (r *Registry) checkNewName(name string, kind Kind) {
	if k, taken := r.kinds[name]; taken {
		panic(fmt.Sprintf("obs: metric %q registered as a %s, already a %s", name, kind, k))
	}
	if metricCatalog[name] {
		return
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: malformed metric name %q (want a dotted lowercase path)", name))
	}
	for _, prefix := range reservedPrefixes {
		if strings.HasPrefix(name, prefix) {
			panic(fmt.Sprintf("obs: metric %q is in the reserved %q namespace but not in the catalog", name, prefix))
		}
	}
}

// Counter is a monotonically accumulating integer metric.
type Counter struct{ v atomic.Int64 }

// Add accumulates n (no-op on a nil handle).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last/representative-value metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set records v (no-op on a nil handle).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// numHistBuckets is the fixed log2 bucket count: bucket 0 holds values
// <= 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
const numHistBuckets = 64

// Histogram summarizes a distribution of integer observations:
// count/sum/min/max plus fixed log2 buckets, from which the snapshot
// derives deterministic p50/p95/p99 summary values.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [numHistBuckets]int64
}

// histBucket maps a value to its log2 bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= numHistBuckets {
		return numHistBuckets - 1
	}
	return i
}

// Observe records one value (no-op on a nil handle).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
}

// bucketQuantile estimates the q-quantile from log2 buckets: the upper
// bound of the bucket where the cumulative count crosses q, clamped to the
// observed [min, max]. Deterministic, and exact to within one bucket.
func bucketQuantile(buckets []int64, count, min, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	target := int64(q * float64(count))
	if float64(target) < q*float64(count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= target {
			var ub int64
			if i > 0 {
				ub = int64(1)<<uint(i) - 1
			}
			if ub < min {
				ub = min
			}
			if ub > max {
				ub = max
			}
			return ub
		}
	}
	return max
}

// trimBuckets drops trailing zero buckets so snapshots stay compact.
func trimBuckets(buckets []int64) []int64 {
	n := len(buckets)
	for n > 0 && buckets[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	copy(out, buckets[:n])
	return out
}

// Counter returns the counter registered under name, creating it on first
// use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkNewName(name, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	r.kinds[name] = kindCounter
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkNewName(name, kindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	r.kinds[name] = kindGauge
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkNewName(name, kindHistogram)
	h := &Histogram{}
	r.hists[name] = h
	r.kinds[name] = kindHistogram
	return h
}

// MetricValue is one metric's exported state. Exactly the fields for its
// kind are meaningful. Histograms carry their raw log2 buckets (trailing
// zeros trimmed) plus derived p50/p95/p99 summary values; the quantiles are
// recomputed whenever snapshots merge, so they stay consistent with the
// buckets for any shard count.
type MetricValue struct {
	Kind    Kind    `json:"kind"`
	Value   int64   `json:"value,omitempty"` // counter total
	Gauge   float64 `json:"gauge,omitempty"`
	Count   int64   `json:"count,omitempty"` // histogram
	Sum     int64   `json:"sum,omitempty"`
	Min     int64   `json:"min,omitempty"`
	Max     int64   `json:"max,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"` // log2 buckets, trailing zeros trimmed
	P50     int64   `json:"p50,omitempty"`
	P95     int64   `json:"p95,omitempty"`
	P99     int64   `json:"p99,omitempty"`
}

// withQuantiles fills the derived p50/p95/p99 fields from the buckets.
func (mv MetricValue) withQuantiles() MetricValue {
	mv.P50 = bucketQuantile(mv.Buckets, mv.Count, mv.Min, mv.Max, 0.50)
	mv.P95 = bucketQuantile(mv.Buckets, mv.Count, mv.Min, mv.Max, 0.95)
	mv.P99 = bucketQuantile(mv.Buckets, mv.Count, mv.Min, mv.Max, 0.99)
	return mv
}

// Snapshot is a point-in-time export of a registry, keyed by metric name.
// JSON-marshaling a Snapshot is deterministic (map keys sort).
type Snapshot map[string]MetricValue

// Grouped runs fn as one snapshot epoch: metric updates made inside fn are
// observed by Snapshot either all or not at all. Use it when updating a
// counter family whose members must stay consistent (e.g. sources merged
// vs. excluded summing to sources polled) — a concurrent /metrics or
// /timeseries scrape otherwise sees a torn view. Concurrent Grouped calls
// do not block each other; only Snapshot excludes them. Nil-safe: fn still
// runs (its updates are no-ops through nil handles).
func (r *Registry) Grouped(fn func()) {
	if r == nil {
		fn()
		return
	}
	r.epochMu.RLock()
	defer r.epochMu.RUnlock()
	fn()
}

// Snapshot exports every registered metric. Zero-valued counters and
// histograms are included, so a run's metric *set* is stable regardless of
// what fired. The export is one epoch: Grouped update families are never
// observed half-applied.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.kinds))
	for n, c := range r.counters {
		out[n] = MetricValue{Kind: kindCounter, Value: c.Value()}
	}
	for n, g := range r.gauges {
		out[n] = MetricValue{Kind: kindGauge, Gauge: g.Value()}
	}
	for n, h := range r.hists {
		h.mu.Lock()
		mv := MetricValue{
			Kind: kindHistogram, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Buckets: trimBuckets(h.buckets[:]),
		}
		h.mu.Unlock()
		out[n] = mv.withQuantiles()
	}
	return out
}

// Merge folds another snapshot into s and returns s: counters and histogram
// totals sum, gauges keep the maximum (the shard-aggregation reduction;
// commutative, so merge order does not matter).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for name, mv := range o {
		cur, ok := s[name]
		if !ok {
			s[name] = mv
			continue
		}
		if cur.Kind != mv.Kind {
			// Conflicting kinds across snapshots: keep the receiver's view.
			continue
		}
		switch mv.Kind {
		case kindCounter:
			cur.Value += mv.Value
		case kindGauge:
			if mv.Gauge > cur.Gauge {
				cur.Gauge = mv.Gauge
			}
		case kindHistogram:
			if mv.Count > 0 {
				if cur.Count == 0 || mv.Min < cur.Min {
					cur.Min = mv.Min
				}
				if cur.Count == 0 || mv.Max > cur.Max {
					cur.Max = mv.Max
				}
				cur.Count += mv.Count
				cur.Sum += mv.Sum
				if len(mv.Buckets) > len(cur.Buckets) {
					grown := make([]int64, len(mv.Buckets))
					copy(grown, cur.Buckets)
					cur.Buckets = grown
				}
				for i, n := range mv.Buckets {
					cur.Buckets[i] += n
				}
				cur = cur.withQuantiles()
			}
		}
		s[name] = cur
	}
	return s
}
