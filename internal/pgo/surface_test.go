package pgo

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/fleet"
	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// The status surface both daemons expose — /healthz /metrics /timeseries
// /events /overhead /dashboard — is pinned here byte for byte: status,
// Content-Type and body of every shared endpoint as served by
// introspect.Server and by fleet.StatusServer over one fixed state (a
// counter, a gauge, a histogram and an overhead.* gauge; a two-event
// journal; a three-sample series). testdata/surface/*.golden were written
// from the two hand-wired servers; whatever serves the surface must
// reproduce them. UPDATE_GOLDEN=1 rewrites them, only for a change that
// means to move a body.

// surfaceState fills reg with the fixed metrics and returns the journal and
// the series sampled from it. Call it after the daemon under test has
// registered its own metrics in reg, so those are sampled too.
func surfaceState(reg *obs.Registry) (*obs.Journal, *obs.TimeSeries) {
	rounds := reg.Counter(obs.MFleetRounds)
	reg.Gauge(obs.MQualityContextOverlap).Set(0.875)
	reg.Gauge(obs.MOverheadPct).Set(2.5)
	lat := reg.Histogram(obs.MFleetRoundNS)
	series := obs.NewTimeSeries(4)
	for round := uint64(1); round <= 3; round++ {
		rounds.Add(1)
		lat.Observe(int64(1000 * round * round))
		series.Sample(round, reg.Snapshot())
	}
	journal := obs.NewJournal()
	journal.Emit(obs.Event{Type: obs.EvPromotion, Round: 1, Source: "src0",
		Metrics: map[string]float64{"overlap": 0.875}, Detail: "generation 1 promoted"})
	journal.Emit(obs.Event{Type: obs.EvOverheadBudgetBreach, Round: 2, Source: "quickstart",
		Metrics: map[string]float64{"budget_pct": 1, "overhead_pct": 2.5},
		Detail:  "profiling overhead 2.500% exceeds budget 1.000%"})
	return journal, series
}

// renderSurface GETs every path in order and renders status, Content-Type
// and body, one block per endpoint.
func renderSurface(h http.Handler, paths []string) string {
	var sb strings.Builder
	for _, path := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		fmt.Fprintf(&sb, "== GET %s -> %d [%s]\n%s\n", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	return sb.String()
}

func checkSurfaceGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "surface", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s surface differs from %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
	}
}

// The paths both daemons answered at the pin; /overhead is asked before
// and after there is something to serve.
var sharedSurface = []string{"/healthz", "/metrics", "/timeseries", "/dashboard", "/overhead"}

func TestServeSurfaceGolden(t *testing.T) {
	reg := obs.NewRegistry()
	srv := introspect.NewServer("quickstart", reg)
	journal, series := surfaceState(reg)
	srv.SetJournal(journal)
	srv.SetTimeSeries(series)
	h := srv.Handler()

	// Before the first overhead artifact: 404, whatever the text.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/overhead", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/overhead before the first artifact -> %d", rec.Code)
	}
	srv.SetOverhead([]byte("{\n  \"schema\": \"csspgo-overhead/v1\"\n}\n"))
	checkSurfaceGolden(t, "serve", renderSurface(h, sharedSurface))

	// /events came to the serve daemon with the shared registration: for
	// the same journal it is the block fleet.golden opens with.
	fleetGolden, err := os.ReadFile(filepath.Join("testdata", "surface", "fleet.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSurface(h, []string{"/events"}); !strings.HasPrefix(string(fleetGolden), got) {
		t.Fatalf("serve /events differs from the fleet's for the same journal:\n%s", got)
	}
}

func TestFleetSurfaceGolden(t *testing.T) {
	// One loopback source whose hot function is under-sampled, polled once
	// into a registry of its own (a round publishes wall-clock metrics), so
	// /healthz has a breaker state and /overhead a confidence summary.
	weak := profdata.New(profdata.ProbeBased, false)
	weak.FuncProfile("hot").AddBody(profdata.LocKey{ID: 1}, 50)
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Profile-Generation", "1")
		w.Write([]byte(profdata.EncodeToString(weak)))
	}))
	defer src.Close()
	agg := fleet.NewAggregator([]*fleet.Source{{Name: "src0", URL: src.URL}}, fleet.Config{}, obs.NewRegistry())
	if round := agg.RoundOnce(context.Background()); round.Healthy != 1 {
		t.Fatalf("fixture round merged %d sources:\n%s", round.Healthy, round.Summary())
	}

	reg := obs.NewRegistry()
	journal, series := surfaceState(reg)
	status := fleet.NewStatusServer(reg, journal, series)
	status.ObserveRound(3, 1, 7, "promoted")

	rec := httptest.NewRecorder()
	status.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/overhead", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/overhead without an aggregator -> %d", rec.Code)
	}
	status.SetAggregator(agg)
	checkSurfaceGolden(t, "fleet", renderSurface(status.Handler(), append([]string{"/events"}, sharedSurface...)))

	// nil journal and series serve empty documents, not errors.
	bare := fleet.NewStatusServer(reg, nil, nil)
	checkSurfaceGolden(t, "fleet-bare", renderSurface(bare.Handler(), []string{"/events", "/timeseries"}))
}
