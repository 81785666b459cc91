package analysis_test

import (
	"fmt"
	"net/http"
	"testing"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/surfacetest"
)

// The daemons' HTTP surfaces are checked by their tests, not by this
// linter: internal/surfacetest's header-order check is driven here over the
// serve daemon's handler (the fleet status surface has its own test in
// internal/fleet). Only test code imports net/http; the layering test holds
// the package itself to that.

func TestCheckHTTPEndpointsCleanServer(t *testing.T) {
	journal := obs.NewJournal()
	journal.Emit(obs.Event{Type: obs.EvPromotion, Round: 1})
	newServe := func() *introspect.Server {
		srv := introspect.NewServer("p", obs.NewRegistry())
		srv.SetJournal(journal)
		srv.SetTimeSeries(obs.NewTimeSeries(0))
		return srv
	}
	// Before the first profile lands, 404s with a Content-Type are fine.
	empty := newServe()
	for _, f := range surfacetest.HeaderOrderFindings(empty.Handler(), empty.Endpoints()) {
		t.Errorf("serve without a profile: %s", f)
	}
	served := newServe()
	p := profdata.New(profdata.ProbeBased, true)
	p.FuncProfile("main").AddBody(profdata.LocKey{ID: 1}, 10)
	if err := served.SetProfile(p, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range surfacetest.HeaderOrderFindings(served.Handler(), served.Endpoints()) {
		t.Errorf("serve: %s", f)
	}
}

// The check itself: a body or a committed header before Content-Type is
// flagged, and so is a 5xx.
func TestCheckHTTPEndpointsFlagsWriteBeforeContentType(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/bad", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("oops")) // no Content-Type set first
	})
	mux.HandleFunc("/bad-header", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK) // commits headers without Content-Type
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("late"))
	})
	mux.HandleFunc("/good", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("fine"))
	})
	mux.HandleFunc("/broken", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	got := fmt.Sprint(surfacetest.HeaderOrderFindings(mux, []string{"/bad", "/bad-header", "/good", "/broken"}))
	if want := "[content-type /bad content-type /bad-header status 500 /broken]"; got != want {
		t.Fatalf("findings = %s, want %s", got, want)
	}
}
