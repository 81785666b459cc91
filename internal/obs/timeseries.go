package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// The bounded in-memory time-series store: one fixed-capacity ring buffer
// per cataloged metric, sampled once per aggregation round (fleet) or
// refresh (serve). Points are stamped with deterministic logical clocks —
// the round number and a per-store sample sequence, never wall time — so a
// serialized store is byte-identical across two identical runs after
// Normalize, the same determinism bar the run reports meet.

// TimeSeriesSchema identifies the serialized store format.
const TimeSeriesSchema = "csspgo-timeseries/v1"

// defaultSeriesCapacity bounds each ring buffer when the caller does not
// choose a capacity.
const defaultSeriesCapacity = 256

// point is one sampled value: (round, seq) is the logical timestamp.
type point struct {
	Round uint64  `json:"round"`
	Seq   uint64  `json:"seq"`
	Value float64 `json:"value"`
}

// tsRing is one metric's fixed-capacity ring: when full, the oldest point
// is evicted (memory stays bounded no matter how long the fleet runs).
type tsRing struct {
	kind   Kind
	buf    []point
	head   int // index of the oldest point
	count  int
	capped int64 // points evicted from this ring
}

func (r *tsRing) push(p point) {
	if r.count < len(r.buf) {
		r.buf[(r.head+r.count)%len(r.buf)] = p
		r.count++
		return
	}
	r.buf[r.head] = p
	r.head = (r.head + 1) % len(r.buf)
	r.capped++
}

func (r *tsRing) points() []point {
	out := make([]point, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// TimeSeries is the store. All methods are nil-safe and safe for concurrent
// use; Sample is the only writer, so callers keep one sampling site per
// store (the round loop or the refresh path).
type TimeSeries struct {
	mu      sync.Mutex
	cap     int
	series  map[string]*tsRing
	samples uint64
}

// NewTimeSeries returns a store whose rings hold up to capacity points
// (defaultSeriesCapacity when capacity <= 0).
func NewTimeSeries(capacity int) *TimeSeries {
	if capacity <= 0 {
		capacity = defaultSeriesCapacity
	}
	return &TimeSeries{cap: capacity, series: map[string]*tsRing{}}
}

// Sample appends one point per metric in the snapshot, stamped with the
// given round number and the store's next sample sequence. Values reduce
// the same way report diffs do (metricScalar: histograms by Sum), so a
// series is always one scalar per metric. Take the snapshot with
// Registry.Snapshot (or under Grouped) so the sampled view is consistent.
func (ts *TimeSeries) Sample(round uint64, snap Snapshot) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.samples++
	for name, mv := range snap {
		r, ok := ts.series[name]
		if !ok {
			r = &tsRing{kind: mv.Kind, buf: make([]point, ts.cap)}
			ts.series[name] = r
		}
		r.push(point{Round: round, Seq: ts.samples, Value: metricScalar(mv)})
	}
}

// seriesNames lists the tracked metric names, sorted.
func (ts *TimeSeries) seriesNames() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]string, 0, len(ts.series))
	for n := range ts.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// points returns one series' points in chronological order (nil when the
// metric is not tracked).
func (ts *TimeSeries) points(name string) []point {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.series[name]
	if !ok {
		return nil
	}
	return r.points()
}

// Stats summarizes the store for the obs.timeseries.* metrics.
func (ts *TimeSeries) Stats() (series int, points int64, evicted int64) {
	if ts == nil {
		return 0, 0, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, r := range ts.series {
		points += int64(r.count)
		evicted += r.capped
	}
	return len(ts.series), points, evicted
}

// PublishStats records the store's own footprint into the registry under
// the cataloged obs.timeseries.* names. Call it before Sample so the
// sampled snapshot includes the store's state as of the previous round —
// publishing is itself a registry write, so ordering it deterministically
// keeps serialized output reproducible.
func (ts *TimeSeries) PublishStats(reg *Registry) {
	if ts == nil || reg == nil {
		return
	}
	series, points, evicted := ts.Stats()
	reg.Gauge(mObsTimeseriesSeries).Set(float64(series))
	reg.Gauge(mObsTimeseriesPoints).Set(float64(points))
	reg.Gauge(mObsTimeseriesEvicted).Set(float64(evicted))
}

// Normalize zeroes the values of wall-clock (_ns) series, the only
// nondeterministic points, so stores from two identical runs serialize
// byte-identically.
func (ts *TimeSeries) Normalize() {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for name, r := range ts.series {
		if !isTimingMetric(name) {
			continue
		}
		for i := range r.buf {
			r.buf[i].Value = 0
		}
	}
}

// tsSeriesJSON is one serialized series.
type tsSeriesJSON struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	Points []point `json:"points"`
}

// tsJSON is the serialized store: series sort by name, points are
// chronological, so encoding is deterministic.
type tsJSON struct {
	Schema   string         `json:"schema"`
	Capacity int            `json:"capacity"`
	Samples  uint64         `json:"samples"`
	Evicted  int64          `json:"evicted_points"`
	Series   []tsSeriesJSON `json:"series"`
}

// Encode renders the store as deterministic, indented JSON with a trailing
// newline (diff-friendly, like the run reports).
func (ts *TimeSeries) Encode() ([]byte, error) {
	out := tsJSON{Schema: TimeSeriesSchema, Series: []tsSeriesJSON{}}
	if ts != nil {
		ts.mu.Lock()
		out.Capacity = ts.cap
		out.Samples = ts.samples
		names := make([]string, 0, len(ts.series))
		for n := range ts.series {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := ts.series[n]
			out.Evicted += r.capped
			out.Series = append(out.Series, tsSeriesJSON{Name: n, Kind: r.kind, Points: r.points()})
		}
		ts.mu.Unlock()
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// decodeTimeSeries parses a serialized store and validates it: schema pin,
// well-formed metric names and kinds, per-series point counts within
// capacity, and (round, seq) increasing within each series.
func decodeTimeSeries(data []byte) (*tsJSON, error) {
	var t tsJSON
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("obs: timeseries: not valid JSON: %w", err)
	}
	if t.Schema != TimeSeriesSchema {
		return nil, fmt.Errorf("obs: timeseries: schema %q, want %q", t.Schema, TimeSeriesSchema)
	}
	if t.Capacity <= 0 {
		return nil, fmt.Errorf("obs: timeseries: capacity %d, want > 0", t.Capacity)
	}
	for _, s := range t.Series {
		if err := checkMetric(s.Name, s.Kind); err != nil {
			return nil, fmt.Errorf("obs: timeseries: series %q: %w", s.Name, err)
		}
		if len(s.Points) > t.Capacity {
			return nil, fmt.Errorf("obs: timeseries: series %q: %d points exceed capacity %d", s.Name, len(s.Points), t.Capacity)
		}
		for i := 1; i < len(s.Points); i++ {
			a, b := s.Points[i-1], s.Points[i]
			if b.Seq <= a.Seq || b.Round < a.Round {
				return nil, fmt.Errorf("obs: timeseries: series %q: point %d not after point %d", s.Name, i, i-1)
			}
		}
	}
	return &t, nil
}
