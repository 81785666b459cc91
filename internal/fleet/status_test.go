package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/surfacetest"
)

// Every endpoint of the fleet status surface sets Content-Type before its
// body and answers without a 5xx, with and without an aggregator attached.
func TestStatusServerEndpointLint(t *testing.T) {
	journal := obs.NewJournal()
	journal.Emit(obs.Event{Type: obs.EvPromotion, Round: 1})
	reg := obs.NewRegistry()
	s := NewStatusServer(reg, journal, obs.NewTimeSeries(4))
	for _, f := range surfacetest.HeaderOrderFindings(s.Handler(), obs.StatusEndpoints) {
		t.Errorf("without an aggregator: %s", f)
	}
	s.SetAggregator(NewAggregator(nil, Config{}, reg))
	for _, f := range surfacetest.HeaderOrderFindings(s.Handler(), obs.StatusEndpoints) {
		t.Errorf("with an aggregator: %s", f)
	}
}

// The fleet status port runs behind the same hardened loop as the serve
// daemon: an oversized upload is refused, not read.
func TestStatusServerBodyCap(t *testing.T) {
	s := NewStatusServer(obs.NewRegistry(), obs.NewJournal(), obs.NewTimeSeries(4))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- obs.Serve(ctx, l, s.Handler()) }()
	res, err := http.Post("http://"+l.Addr().String()+"/healthz", "application/octet-stream", bytes.NewReader(make([]byte, 2<<20)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB POST to the status port: %d, want %d", res.StatusCode, http.StatusRequestEntityTooLarge)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// /healthz reflects the last ObserveRound: round number, healthy count,
// last-good generation, and the round outcome.
func TestStatusServerHealthz(t *testing.T) {
	jr := obs.NewJournal()
	jr.Emit(obs.Event{Type: obs.EvPromotion, Round: 3})
	s := NewStatusServer(obs.NewRegistry(), jr, obs.NewTimeSeries(4))
	s.ObserveRound(3, 2, 7, "promoted")

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	hz := get("/healthz")
	for _, want := range []string{`"status":"ok"`, `"round":3`, `"healthy":2`,
		`"generation":7`, `"last_round":"promoted"`} {
		if !strings.Contains(hz, want) {
			t.Fatalf("healthz lacks %s: %s", want, hz)
		}
	}
	if ev := get("/events"); !strings.Contains(ev, `"type":"promotion"`) {
		t.Fatalf("/events lacks the journaled event: %s", ev)
	}
	if ts := get("/timeseries"); !strings.Contains(ts, obs.TimeSeriesSchema) {
		t.Fatalf("/timeseries lacks schema: %s", ts)
	}
	if db := get("/dashboard"); !strings.Contains(db, "<html") && !strings.Contains(db, "<!doctype") {
		t.Fatalf("/dashboard not HTML: %.80s", db)
	}
}

// OutcomeString covers each round shape the CLI reports.
func TestOutcomeString(t *testing.T) {
	merged := &Round{Merged: testProfile("f"), Healthy: 2}
	cases := []struct {
		round           *Round
		promoted, gated bool
		want            string
	}{
		{&Round{}, false, false, "no-candidate"},
		{merged, true, false, "promoted"},
		{merged, false, true, "rolled-back"},
		{merged, false, false, "merged-2"},
	}
	for _, c := range cases {
		if got := OutcomeString(c.round, c.promoted, c.gated); got != c.want {
			t.Fatalf("OutcomeString(%v, %v) = %q, want %q", c.promoted, c.gated, got, c.want)
		}
	}
}

// With an aggregator attached, /healthz pins the per-source circuit-breaker
// JSON shape ("sources": {name: state}) and /overhead serves the fleet's
// per-source confidence summaries.
func TestStatusServerAggregatorSurfaces(t *testing.T) {
	// One source serving a profile whose hot function is under-sampled
	// (>=1% share, <100 samples), one source that always fails: after two
	// rounds the first is closed with a confidence summary, the second open.
	weak := profdata.New(profdata.ProbeBased, false)
	weak.FuncProfile("hot").AddBody(profdata.LocKey{ID: 1}, 50)
	good := httptest.NewServer(newProfileServer(weak, 1))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer bad.Close()

	reg := obs.NewRegistry()
	journal := obs.NewJournal()
	cfg := testAggConfig()
	cfg.Journal = journal
	agg := NewAggregator([]*Source{
		{Name: "a", URL: good.URL},
		{Name: "b", URL: bad.URL},
	}, cfg, reg)
	for i := 0; i < 2; i++ {
		agg.RoundOnce(context.Background())
	}

	s := NewStatusServer(reg, journal, obs.NewTimeSeries(4))
	s.SetAggregator(agg)
	h := s.Handler()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	hz := get("/healthz")
	if !strings.Contains(hz, `"sources":{"a":"closed","b":"open"}`) {
		t.Fatalf("healthz breaker states wrong: %s", hz)
	}

	oh := get("/overhead")
	var doc struct {
		Sources    []sourceConfidence `json:"sources"`
		LowSources int                `json:"low_sources"`
	}
	if err := json.Unmarshal([]byte(oh), &doc); err != nil {
		t.Fatalf("/overhead not valid JSON: %v\n%s", err, oh)
	}
	if len(doc.Sources) != 1 || doc.Sources[0].Source != "a" {
		t.Fatalf("confidence summaries = %+v", doc.Sources)
	}
	if doc.Sources[0].HotUncertain == 0 || doc.LowSources != 1 {
		t.Fatalf("under-sampled source not flagged: %+v", doc)
	}
	if reg.Gauge(obs.MFleetConfidenceLowSources).Value() != 1 {
		t.Fatalf("%s = %v", obs.MFleetConfidenceLowSources, reg.Gauge(obs.MFleetConfidenceLowSources).Value())
	}

	// Without an aggregator /overhead 404s but /healthz stays shapely.
	bare := NewStatusServer(reg, obs.NewJournal(), obs.NewTimeSeries(4))
	rec := httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/overhead", nil))
	if rec.Code != 404 {
		t.Fatalf("/overhead without aggregator -> %d", rec.Code)
	}
}
