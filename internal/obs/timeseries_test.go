package obs

import (
	"bytes"
	"strings"
	"testing"
)

// tsSnap builds a snapshot with one counter, one gauge, and one histogram,
// scaled by round so successive samples differ.
func tsSnap(round int64) Snapshot {
	return Snapshot{
		"fleet.rounds":   {Kind: kindCounter, Value: round},
		"quality.ctxov":  {Kind: kindGauge, Gauge: float64(round) / 10},
		"fleet.round_ns": {Kind: kindHistogram, Count: 1, Sum: 1000 * round, Min: 7, Max: 7000},
	}
}

// Sample stamps logical clocks: the caller's round plus the store's own
// sample sequence — never wall time.
func TestTimeSeriesLogicalClocks(t *testing.T) {
	ts := NewTimeSeries(8)
	ts.Sample(1, tsSnap(1))
	ts.Sample(1, tsSnap(2)) // same round sampled twice (e.g. retry)
	ts.Sample(2, tsSnap(3))
	if ts.samples != 3 {
		t.Fatalf("samples = %d, want 3", ts.samples)
	}
	pts := ts.points("fleet.rounds")
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Seq != uint64(i+1) {
			t.Fatalf("point %d seq = %d, want %d", i, p.Seq, i+1)
		}
	}
	if pts[0].Round != 1 || pts[1].Round != 1 || pts[2].Round != 2 {
		t.Fatalf("rounds = %v", pts)
	}
	// Histograms reduce to their Sum, the same scalar report diffs use.
	if got := ts.points("fleet.round_ns")[2].Value; got != 3000 {
		t.Fatalf("histogram scalar = %v, want Sum 3000", got)
	}
	names := ts.seriesNames()
	if len(names) != 3 || names[0] != "fleet.round_ns" {
		t.Fatalf("series names = %v (want sorted)", names)
	}
}

// A full ring evicts the oldest point: memory stays bounded no matter how
// many rounds the fleet runs, and the eviction is counted.
func TestTimeSeriesRingEviction(t *testing.T) {
	ts := NewTimeSeries(2)
	for r := int64(1); r <= 5; r++ {
		ts.Sample(uint64(r), tsSnap(r))
	}
	pts := ts.points("fleet.rounds")
	if len(pts) != 2 {
		t.Fatalf("capped series holds %d points, want 2", len(pts))
	}
	if pts[0].Round != 4 || pts[1].Round != 5 {
		t.Fatalf("eviction kept wrong points: %v", pts)
	}
	series, points, evicted := ts.Stats()
	if series != 3 || points != 6 || evicted != 9 {
		t.Fatalf("stats = (%d, %d, %d), want (3, 6, 9)", series, points, evicted)
	}
	reg := NewRegistry()
	ts.PublishStats(reg)
	snap := reg.Snapshot()
	if snap[mObsTimeseriesSeries].Gauge != 3 ||
		snap[mObsTimeseriesPoints].Gauge != 6 ||
		snap[mObsTimeseriesEvicted].Gauge != 9 {
		t.Fatalf("published stats wrong: %+v", snap)
	}
}

// NewTimeSeries(<=0) takes the default capacity.
func TestTimeSeriesDefaultCapacity(t *testing.T) {
	if got := NewTimeSeries(0).cap; got != defaultSeriesCapacity {
		t.Fatalf("capacity = %d, want %d", got, defaultSeriesCapacity)
	}
	if got := NewTimeSeries(7).cap; got != 7 {
		t.Fatalf("capacity = %d, want 7", got)
	}
}

// Two identically-driven stores serialize byte-identically, and the output
// passes its own validator.
func TestTimeSeriesEncodeDeterministic(t *testing.T) {
	mk := func() *TimeSeries {
		ts := NewTimeSeries(4)
		for r := int64(1); r <= 6; r++ {
			ts.Sample(uint64(r), tsSnap(r))
		}
		return ts
	}
	a, _ := mk().Encode()
	b, _ := mk().Encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical stores serialize differently:\n%s\nvs\n%s", a, b)
	}
	if _, err := decodeTimeSeries(a); err != nil {
		t.Fatalf("encoded store invalid: %v", err)
	}
	if !bytes.HasSuffix(a, []byte("\n")) {
		t.Fatalf("encoding lacks trailing newline")
	}
}

// Normalize zeroes wall-clock (_ns) series only; logical values survive.
func TestTimeSeriesNormalizeZeroesTimingOnly(t *testing.T) {
	ts := NewTimeSeries(4)
	ts.Sample(1, tsSnap(1))
	ts.Sample(2, tsSnap(2))
	ts.Normalize()
	for _, p := range ts.points("fleet.round_ns") {
		if p.Value != 0 {
			t.Fatalf("_ns series not zeroed: %v", p)
		}
	}
	pts := ts.points("fleet.rounds")
	if pts[0].Value != 1 || pts[1].Value != 2 {
		t.Fatalf("non-timing series damaged by Normalize: %v", pts)
	}
	// Clocks are untouched: (round, seq) still validate as increasing.
	data, _ := ts.Encode()
	if _, err := decodeTimeSeries(data); err != nil {
		t.Fatalf("normalized store invalid: %v", err)
	}
}

// decodeTimeSeries rejects each way a serialized store can be malformed.
func TestValidateTimeSeriesRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"wrong schema",
			`{"schema":"csspgo-timeseries/v0","capacity":4,"samples":0,"evicted_points":0,"series":[]}`,
			"schema"},
		{"zero capacity",
			`{"schema":"csspgo-timeseries/v1","capacity":0,"samples":0,"evicted_points":0,"series":[]}`,
			"capacity"},
		{"bad metric name",
			`{"schema":"csspgo-timeseries/v1","capacity":4,"samples":1,"evicted_points":0,
			  "series":[{"name":"nodots","kind":"counter","points":[]}]}`,
			"metric name"},
		{"unknown kind",
			`{"schema":"csspgo-timeseries/v1","capacity":4,"samples":1,"evicted_points":0,
			  "series":[{"name":"a.b","kind":"sparkline","points":[]}]}`,
			"kind"},
		{"over capacity",
			`{"schema":"csspgo-timeseries/v1","capacity":1,"samples":2,"evicted_points":0,
			  "series":[{"name":"a.b","kind":"counter","points":[
			    {"round":1,"seq":1,"value":1},{"round":2,"seq":2,"value":2}]}]}`,
			"capacity"},
		{"seq not increasing",
			`{"schema":"csspgo-timeseries/v1","capacity":4,"samples":2,"evicted_points":0,
			  "series":[{"name":"a.b","kind":"counter","points":[
			    {"round":1,"seq":2,"value":1},{"round":1,"seq":2,"value":2}]}]}`,
			"not after"},
		{"round decreasing",
			`{"schema":"csspgo-timeseries/v1","capacity":4,"samples":2,"evicted_points":0,
			  "series":[{"name":"a.b","kind":"counter","points":[
			    {"round":2,"seq":1,"value":1},{"round":1,"seq":2,"value":2}]}]}`,
			"not after"},
	}
	for _, tc := range cases {
		_, err := decodeTimeSeries([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// A nil store is inert, and encoding it still yields a valid empty document.
func TestTimeSeriesNilSafety(t *testing.T) {
	var ts *TimeSeries
	ts.Sample(1, tsSnap(1))
	ts.Normalize()
	ts.PublishStats(NewRegistry())
	if ts.points("a.b") != nil || ts.seriesNames() != nil {
		t.Fatalf("nil store not inert")
	}
	s, p, e := ts.Stats()
	if s != 0 || p != 0 || e != 0 {
		t.Fatalf("nil stats = (%d, %d, %d)", s, p, e)
	}
	data, err := ts.Encode()
	if err != nil {
		t.Fatalf("nil encode: %v", err)
	}
	// The empty document carries the schema but capacity 0 — the validator
	// correctly treats a nil store's export as not a real store.
	if !bytes.Contains(data, []byte(TimeSeriesSchema)) {
		t.Fatalf("nil encode lacks schema: %s", data)
	}
}
