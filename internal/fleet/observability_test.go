package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// traceBytes exports a trace as Chrome trace-event JSON.
func exportTrace(t *testing.T, tr *obs.Trace) *obs.ChromeTrace {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	ct, err := obs.ParseChromeTrace(b.Bytes())
	if err != nil {
		t.Fatalf("trace parse: %v", err)
	}
	return ct
}

// The acceptance path for the stitched fleet trace: a traced aggregation
// round over three real serve daemons propagates traceparent into each
// instance, and the four per-process exports stitch into one trace where
// every instance-side handler AND refresh span has the aggregator's
// fleet.round span as an ancestor.
func TestFleetTraceStitchAcrossProcesses(t *testing.T) {
	const instances = 3
	serveTraces := make([]*obs.Trace, instances)
	daemons := make([]*introspect.Server, instances)
	sources := make([]*Source, instances)
	for i := 0; i < instances; i++ {
		srv := introspect.NewServer("app", obs.NewRegistry())
		// First generation before SetTrace: the initial refresh mints no
		// span, so every recorded instance-side span is fleet-parented.
		if err := srv.SetProfile(testProfile(fmt.Sprintf("f%d", i)), nil); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		tr := obs.NewTrace()
		// Distinct per-instance trace IDs: identical IDs would collide span
		// IDs in the stitched trace (the validator rejects that).
		tr.SetTraceID(obs.DeriveTraceID("stitch-test-serve", fmt.Sprint(i)))
		srv.SetTrace(tr.Root())
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		serveTraces[i], daemons[i] = tr, srv
		sources[i] = &Source{Name: fmt.Sprintf("src%d", i), URL: hs.URL + "/profiles/app"}
	}

	fleetTrace := obs.NewTrace()
	fleetTrace.SetTraceID(obs.DeriveTraceID("stitch-test-fleet"))
	cfg := testAggConfig()
	cfg.Trace = fleetTrace.Root()
	agg := NewAggregator(sources, cfg, obs.NewRegistry())
	round := agg.RoundOnce(context.Background())
	if round.Healthy != instances {
		t.Fatalf("healthy = %d\n%s", round.Healthy, round.Summary())
	}
	if !round.Ctx.Valid() {
		t.Fatalf("traced round has no span context")
	}
	// Each instance refreshes after the round: the refresh span adopts the
	// fleet context its handler remembered, attributing the new generation
	// to the round that consumed the old one.
	for i, srv := range daemons {
		if err := srv.SetProfile(testProfile(fmt.Sprintf("f%d", i), "g"), nil); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}

	inputs := []*obs.ChromeTrace{exportTrace(t, fleetTrace)}
	for _, tr := range serveTraces {
		inputs = append(inputs, exportTrace(t, tr))
	}
	merged := obs.StitchChromeTraces(inputs)
	st, err := merged.Links(instances)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Per instance: handle_profile -> fleet.poll and serve.refresh ->
	// fleet.poll both cross the process boundary.
	if st.CrossProcessLinks != 2*instances {
		t.Fatalf("cross-process links = %d, want %d (stats %+v)", st.CrossProcessLinks, 2*instances, st)
	}
	for _, span := range []string{"serve.handle_profile", "serve.refresh"} {
		if err := merged.RequireAncestor(span, "fleet.round"); err != nil {
			t.Fatalf("ancestry: %v", err)
		}
	}
	names := merged.SpanNames()
	for _, want := range []string{"fleet.round", "fleet.fetch", "fleet.poll", "fleet.merge",
		"serve.handle_profile", "serve.refresh"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("span %q missing from stitched trace (have %v)", want, names)
		}
	}

	// Dropping the aggregator's export breaks every instance-side parent
	// link — the validator must reject, not warn.
	broken := obs.StitchChromeTraces(inputs[1:])
	if _, err := broken.Links(0); err == nil ||
		!strings.Contains(err.Error(), "broken parent link") {
		t.Fatalf("broken stitch accepted: %v", err)
	}
}

// observedRun drives a fixed three-source fleet (healthy, quota-clamped,
// down) for two rounds with a journal and time-series store, and returns
// their normalized serializations.
func observedRun(t *testing.T) (journal, timeseries []byte) {
	t.Helper()
	good := httptest.NewServer(newProfileServer(testProfile("alpha", "beta"), 1))
	defer good.Close()
	hog := httptest.NewServer(newProfileServer(testProfile("h1", "h2", "h3"), 1))
	defer hog.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer bad.Close()

	cfg := testAggConfig()
	cfg.Fetch.Retries = 0
	cfg.Breaker.FailureThreshold = 1
	cfg.Quota = 300
	jr := obs.NewJournal()
	cfg.Journal = jr
	series := obs.NewTimeSeries(16)
	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{
		{Name: "good", URL: good.URL},
		{Name: "hog", URL: hog.URL},
		{Name: "bad", URL: bad.URL},
	}, cfg, reg)
	prom := NewPromoter(PromoteConfig{MinOverlap: 0.5, Journal: jr}, reg)

	for r := 0; r < 2; r++ {
		round := agg.RoundOnce(context.Background())
		prom.BeginRound(round.Num, round.Ctx)
		if round.Merged == nil {
			t.Fatalf("round %d merged nothing:\n%s", r, round.Summary())
		}
		if art, res := prom.Promote(round.Merged, nil); art == nil {
			t.Fatalf("round %d rejected: %s", r, res)
		}
		series.PublishStats(reg)
		series.Sample(round.Num, reg.Snapshot())
	}

	jr.Normalize()
	series.Normalize()
	jd, err := jr.Encode()
	if err != nil {
		t.Fatalf("journal encode: %v", err)
	}
	sd, err := series.Encode()
	if err != nil {
		t.Fatalf("series encode: %v", err)
	}
	return jd, sd
}

// The determinism bar from the issue: two identical runs write
// byte-identical normalized journals and time-series stores, even though
// the runs bind fresh ports and measure real wall time.
func TestFleetArtifactsByteIdenticalAcrossRuns(t *testing.T) {
	j1, s1 := observedRun(t)
	j2, s2 := observedRun(t)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("journals differ across identical runs:\n--- run 1\n%s--- run 2\n%s", j1, j2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("time-series differ across identical runs:\n--- run 1\n%s--- run 2\n%s", s1, s2)
	}
	// Both artifacts pass their own validators, and the run exercised the
	// event types it was built to exercise.
	for _, data := range [][]byte{j1, s1} {
		if _, err := obs.ValidateArtifact(data, 0); err != nil {
			t.Fatalf("invalid artifact: %v\n%s", err, data)
		}
	}
	for _, want := range []string{`"type":"quota_clamp"`, `"type":"breaker_open"`, `"type":"promotion"`} {
		if !bytes.Contains(j1, []byte(want)) {
			t.Fatalf("journal lacks %s:\n%s", want, j1)
		}
	}
	// Wall-clock series survive as names but their values are zeroed.
	if !bytes.Contains(s1, []byte(obs.MFleetRoundNS)) {
		t.Fatalf("time-series lacks %s:\n%s", obs.MFleetRoundNS, s1)
	}
}

// flatProfile builds a flat probe-based profile with one body entry per
// function, so quality.DiffProfiles overlap is exactly controllable.
func flatProfile(weights map[string]uint64) *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, false)
	for name, w := range weights {
		p.FuncProfile(name).AddBody(profdata.LocKey{ID: 1}, w)
	}
	return p
}

// The slow-drip scenario: a fleet whose profile distribution drifts a little
// more every round. The EWMA trend detector must journal overlap_degrading
// strictly BEFORE the promotion gate's first rejection — the operator hears
// the erosion before the rollback, never as a surprise.
func TestOverlapDegradingPrecedesFirstRejection(t *testing.T) {
	jr := obs.NewJournal()
	reg := obs.NewRegistry()
	prom := NewPromoter(PromoteConfig{MinOverlap: 0.8, Journal: jr}, reg)
	prom.adopt(&Artifact{Profile: flatProfile(map[string]uint64{"base": 1000})})

	// Each candidate shifts k weight from "base" into a fresh drift key, so
	// overlap against the previous generation is (1000-k)/1000: 0.95, 0.90,
	// 0.85 (all above the 0.8 floor), then a 0.50 cliff the gate rejects.
	drip := []map[string]uint64{
		{"base": 950, "drift1": 50},
		{"base": 900, "drift2": 100},
		{"base": 850, "drift3": 150},
		{"base": 500, "drift4": 500},
	}
	var firstRejection uint64
	for i, weights := range drip {
		round := uint64(i + 1)
		prom.BeginRound(round, obs.SpanContext{})
		art, res := prom.Promote(flatProfile(weights), nil)
		if i < 3 {
			if art == nil {
				t.Fatalf("round %d: gradual drift rejected early: %s", round, res)
			}
			continue
		}
		if art != nil || !res.RolledBack {
			t.Fatalf("round %d: cliff candidate promoted (overlap %.4f)", round, res.Overlap)
		}
		firstRejection = round
	}

	evs := jr.Events()
	var degrade, rollback *obs.Event
	for i := range evs {
		switch evs[i].Type {
		case obs.EvOverlapDegrading:
			if degrade == nil {
				degrade = &evs[i]
			}
		case obs.EvRollback:
			if rollback == nil {
				rollback = &evs[i]
			}
		}
	}
	if degrade == nil {
		t.Fatalf("no overlap_degrading event emitted; journal: %+v", evs)
	}
	if rollback == nil || rollback.Round != firstRejection {
		t.Fatalf("rollback event missing or mis-stamped: %+v", rollback)
	}
	// The deterministic ordering claim: the warning precedes the first
	// rejection on both logical clocks.
	if degrade.Seq >= rollback.Seq || degrade.Round >= rollback.Round {
		t.Fatalf("degrading (round %d, seq %d) not before rollback (round %d, seq %d)",
			degrade.Round, degrade.Seq, rollback.Round, rollback.Seq)
	}
	for _, key := range []string{"overlap", "margin", "ewma_margin"} {
		if _, ok := degrade.Metrics[key]; !ok {
			t.Fatalf("degrading event lacks metric %q: %+v", key, degrade)
		}
	}
	// The event counters moved with the journal, as one family. (The cliff
	// round itself is also a decline, so the detector may fire again there —
	// count occurrences rather than pinning one.)
	degradings := int64(0)
	for _, e := range evs {
		if e.Type == obs.EvOverlapDegrading {
			degradings++
		}
	}
	snap := reg.Snapshot()
	if got := snap[obs.MFleetEventsOverlapDegrading].Value; got != degradings {
		t.Fatalf("overlap_degrading counter = %d, journal has %d", got, degradings)
	}
	if got := snap[obs.MFleetEventsEmitted].Value; got != int64(len(evs)) {
		t.Fatalf("events counter = %d, journal has %d", got, len(evs))
	}
}
