package pgo

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/overhead"
	"csspgo/internal/workloads"
)

// MeasureOverhead produces a valid artifact whose ledger reflects a real
// metered run, and two identical runs are byte-identical after Normalize —
// the acceptance bar for the check.sh overhead lane.
func TestMeasureOverheadDeterministic(t *testing.T) {
	w, err := workloads.Load("adretriever", 1)
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	pc := DefaultProfileConfig()
	measure := func() []byte {
		rep, prof, err := MeasureOverhead(built.Bin, w.Train, pc)
		if err != nil {
			t.Fatal(err)
		}
		if prof == nil || prof.TotalSamples() == 0 {
			t.Fatal("metered run produced no profile")
		}
		if rep.Totals.Samples == 0 || rep.Totals.SampleCycles == 0 {
			t.Fatalf("ledger empty: %+v", rep.Totals)
		}
		if rep.Confidence == nil || len(rep.Confidence.Funcs) == 0 {
			t.Fatal("no confidence heatmap")
		}
		if rep.CollectWallNS == 0 {
			t.Fatal("live report must carry wall time before Normalize")
		}
		rep.Normalize()
		if err := rep.Validate(); err != nil {
			t.Fatalf("artifact invalid: %v", err)
		}
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := measure(), measure()
	if !bytes.Equal(a, b) {
		t.Fatalf("normalized artifacts differ across identical runs:\n%.400s\n---\n%.400s", a, b)
	}
	if _, err := overhead.Decode(a); err != nil {
		t.Fatalf("artifact does not decode: %v", err)
	}
}

// observedRefresh runs one refresh of adretriever with the overhead
// observatory attached and a microscopic budget, so the journal holds a
// breach.
func observedRefresh(t *testing.T) (*obs.Registry, *obs.Journal, *captureSink) {
	t.Helper()
	reg := obs.NewRegistry()
	journal := obs.NewJournal()
	sink := &captureSink{}
	oo := &OverheadObs{Sink: sink, Journal: journal, BudgetPct: 0.0001, Source: "adretriever"}
	w, err := workloads.Load("adretriever", 1)
	if err != nil {
		t.Fatal(err)
	}
	refresh, err := NewRefresherObserved(w.Files, w.Train, DefaultProfileConfig(), reg, oo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := refresh(); err != nil {
		t.Fatal(err)
	}
	return reg, journal, sink
}

// The observed refresher publishes the overhead.* ledger and delivers a
// normalized artifact to the sink; a tiny budget journals a breach and a
// hot-uncertain heatmap journals a confidence event, all within the closed
// event catalog.
func TestRefresherOverheadObservatory(t *testing.T) {
	reg, journal, sink := observedRefresh(t)

	snap := reg.Snapshot()
	for _, name := range []string{obs.MOverheadPct, obs.MOverheadSamples, obs.MOverheadCycles} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("refresh did not publish %s", name)
		}
	}
	if reg.Counter(obs.MOverheadBudgetBreaches).Value() == 0 {
		t.Fatal("microscopic budget not breached")
	}
	if len(sink.data) == 0 {
		t.Fatal("sink got no artifact")
	}
	rep, err := overhead.Decode(sink.data)
	if err != nil {
		t.Fatalf("sink artifact invalid: %v", err)
	}
	if rep.CollectWallNS != 0 {
		t.Fatal("sink artifact not normalized")
	}
	var breach bool
	for _, e := range journal.Events() {
		if e.Type == obs.EvOverheadBudgetBreach {
			breach = true
		}
	}
	if !breach {
		t.Fatalf("no %s event journaled: %+v", obs.EvOverheadBudgetBreach, journal.Events())
	}
	data, err := journal.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.DecodeJournal(data); err != nil {
		t.Fatalf("journal outside the closed catalog: %v", err)
	}
}

// The serve daemon's journal is on its /events, like the fleet's: the
// budget breach a refresh journaled is served there as a valid
// csspgo-events/v1 stream.
func TestServeEventsEndpoint(t *testing.T) {
	reg, journal, _ := observedRefresh(t)
	srv := introspect.NewServer("adretriever", reg)
	srv.SetJournal(journal)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("/events -> %d [%s]", rec.Code, rec.Header().Get("Content-Type"))
	}
	if _, err := obs.DecodeJournal(rec.Body.Bytes()); err != nil {
		t.Fatalf("/events is not a valid journal: %v", err)
	}
	if !strings.Contains(rec.Body.String(), `"type":"`+string(obs.EvOverheadBudgetBreach)+`"`) {
		t.Fatalf("/events lacks the budget breach:\n%s", rec.Body.String())
	}
}

type captureSink struct{ data []byte }

func (s *captureSink) SetOverhead(data []byte) { s.data = data }
