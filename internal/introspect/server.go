package introspect

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// Served is one atomically-swapped generation of the daemon's artifacts:
// the profile bytes builds fetch, the folded flamegraph export, and the run
// report from the collection that produced them. Everything is rendered at
// swap time, so request handlers only copy bytes — a request can never
// observe a half-updated profile.
type Served struct {
	Name       string // profile name under /profiles/<name>
	Profile    []byte // text-encoded profile
	Folded     []byte // folded-stack flamegraph export
	Report     []byte // csspgo-run-report/v1 JSON (may be nil)
	Generation uint64 // 1 for the first SetProfile, +1 per swap
	SwappedAt  time.Time
}

// RefreshFunc re-collects a profile (and its run report) for the serving
// daemon; `csspgo serve -refresh` calls it on every tick. It must be safe
// for use from the refresh goroutine.
type RefreshFunc func() (*profdata.Profile, *obs.Report, error)

// Server is the continuous-profiling daemon behind `csspgo serve`: it
// holds the current profile generation and exposes it over HTTP
// (datadog-pgo-style — builds pull /profiles/<name>, humans pull
// /flamegraph and /metrics). What is a profile daemon's own lives here —
// /profiles/ /flamegraph /report, the request counter, the traceparent
// adoption; the status surface it shares with `csspgo fleet` is the
// obs.Status it mounts, to which it contributes its health fields and the
// latest overhead artifact. All serve.* metrics land in the registry the
// server was built with, so /metrics covers both the pipeline and the
// daemon itself.
type Server struct {
	name   string
	status obs.Status

	requests        *obs.Counter
	refreshes       *obs.Counter
	refreshFailures *obs.Counter
	swapLatency     *obs.Histogram

	cur atomic.Pointer[Served]
	gen atomic.Uint64

	// span (optional) parents the daemon's handler/refresh spans; fleetCtx
	// remembers the last traceparent a fleet fetch carried, so refresh spans
	// attribute to the aggregator round that consumed them.
	span *obs.Span

	// ohData holds the latest normalized csspgo-overhead/v1 artifact (the
	// refresher delivers one per generation through SetOverhead).
	ohData atomic.Pointer[[]byte]

	ctxMu    sync.Mutex
	fleetCtx obs.SpanContext

	rounds      atomic.Uint64 // refresh attempts (uptime in rounds)
	lastRefresh atomic.Pointer[string]
}

// NewServer returns a daemon serving under the given profile name,
// publishing serve.* metrics into reg (which may already carry pipeline
// metrics; /metrics exposes whatever the registry holds).
func NewServer(name string, reg *obs.Registry) *Server {
	s := &Server{
		name:            name,
		requests:        reg.Counter(obs.MServeRequests),
		refreshes:       reg.Counter(obs.MServeRefreshes),
		refreshFailures: reg.Counter(obs.MServeRefreshFailures),
		swapLatency:     reg.Histogram(obs.MServeSwapLatencyNS),
	}
	s.status = obs.Status{
		Title: "csspgo serve: " + name,
		Reg:   reg,
		// Generation, uptime-in-rounds and the last refresh outcome let the
		// fleet aggregator (and the dashboard) tell "alive" from "alive but
		// stagnant".
		Health: func() map[string]any {
			return map[string]any{
				"generation":    s.Generation(),
				"uptime_rounds": s.rounds.Load(),
				"last_refresh":  s.lastRefreshOutcome(),
			}
		},
		Overhead: func() ([]byte, bool) {
			if p := s.ohData.Load(); p != nil {
				return *p, true
			}
			return nil, false
		},
	}
	return s
}

// SetTrace parents the daemon's handler and refresh spans under parent
// (typically the trace root). Without it the daemon records no spans.
func (s *Server) SetTrace(parent *obs.Span) { s.span = parent }

// SetTimeSeries installs a bounded time-series store sampled once per
// profile swap (nil disables sampling).
func (s *Server) SetTimeSeries(ts *obs.TimeSeries) { s.status.Series = ts }

// SetJournal installs the daemon's event journal; /events serves it and
// the dashboard renders it (budget breaches, low-confidence findings).
func (s *Server) SetJournal(j *obs.Journal) { s.status.Journal = j }

// SetOverhead atomically publishes a new overhead artifact for /overhead
// (the refresher calls it once per generation; pgo.OverheadSink).
func (s *Server) SetOverhead(data []byte) {
	if data == nil {
		return
	}
	s.ohData.Store(&data)
}

// fleetContext returns the last trace context a fleet fetch propagated
// (zero before any traced fetch arrived).
func (s *Server) fleetContext() obs.SpanContext {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	return s.fleetCtx
}

func (s *Server) setFleetContext(sc obs.SpanContext) {
	s.ctxMu.Lock()
	s.fleetCtx = sc
	s.ctxMu.Unlock()
}

// SetProfile renders and atomically publishes a new profile generation.
// The swap itself is a pointer store: in-flight requests keep the
// generation they started with.
func (s *Server) SetProfile(p *profdata.Profile, rep *obs.Report) error {
	start := time.Now()
	// The refresh span adopts the last fleet fetch's trace context: the
	// refresh causally belongs to the aggregation round consuming its
	// output, so the stitched fleet trace shows which round drove it.
	sp := s.span.SpanRemote("serve.refresh", s.fleetContext())
	defer sp.End()
	served := &Served{Name: s.name, SwappedAt: start}
	served.Profile = []byte(profdata.EncodeToString(p))
	served.Folded = EncodeFoldedText(Folded(p))
	if rep != nil {
		data, err := rep.Encode()
		if err != nil {
			return fmt.Errorf("introspect: encode report: %w", err)
		}
		served.Report = data
	}
	served.Generation = s.gen.Add(1)
	sp.SetAttr("generation", served.Generation)
	s.cur.Store(served)
	s.swapLatency.Observe(time.Since(start).Nanoseconds())
	if series := s.status.Series; series != nil {
		// Sample once per swap on the generation clock — logical, never
		// wall time, so serialized series stay reproducible.
		series.PublishStats(s.status.Reg)
		series.Sample(served.Generation, s.status.Reg.Snapshot())
	}
	return nil
}

// Current returns the live generation (nil before the first SetProfile).
func (s *Server) Current() *Served { return s.cur.Load() }

// Generation returns the current swap count.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// nextRefreshDelay returns the wait before the next refresh attempt after
// the given number of consecutive failures: the plain interval while
// healthy, doubling per failure up to 8x — a persistently broken collector
// must not be hammered at full cadence, but recovery is probed forever.
func nextRefreshDelay(interval time.Duration, failures int) time.Duration {
	if failures <= 0 {
		return interval
	}
	shift := failures
	if shift > 3 {
		shift = 3
	}
	return interval << shift
}

// RefreshLoop re-profiles on every interval until ctx is done, swapping in
// each fresh profile+report. A failed refresh counts on
// serve.refresh_failures and keeps the previous generation serving; while
// failures persist the loop backs off (capped exponential, up to 8x the
// interval) instead of retrying at full cadence, and the first success
// restores the normal rhythm.
func (s *Server) RefreshLoop(ctx context.Context, interval time.Duration, refresh RefreshFunc) {
	if interval <= 0 || refresh == nil {
		return
	}
	failures := 0
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		prof, rep, err := refresh()
		if err == nil {
			err = s.SetProfile(prof, rep)
		}
		s.rounds.Add(1)
		if err != nil {
			failures++
			s.refreshFailures.Add(1)
			s.setLastRefresh("failed: " + err.Error())
		} else {
			failures = 0
			s.refreshes.Add(1)
			s.setLastRefresh("ok")
		}
		t.Reset(nextRefreshDelay(interval, failures))
	}
}

func (s *Server) setLastRefresh(outcome string) { s.lastRefresh.Store(&outcome) }

// lastRefreshOutcome returns the most recent refresh result ("none" before
// the first refresh attempt).
func (s *Server) lastRefreshOutcome() string {
	if p := s.lastRefresh.Load(); p != nil {
		return *p
	}
	return "none"
}

// Endpoints lists the daemon's HTTP surface (as concrete probe paths — the
// header-order tests and the smoke tests iterate over these).
func (s *Server) Endpoints() []string {
	return append(append([]string(nil), obs.StatusEndpoints...),
		"/report", "/flamegraph", "/profiles/"+s.name)
}

// Handler returns the daemon's HTTP handler (obs.Serve runs it): the shared
// status surface plus the profile daemon's own endpoints. Every handler
// sets Content-Type before writing (internal/surfacetest's header-order
// check holds it to that).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.status.Mount(mux)
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		cur := s.Current()
		if cur == nil || cur.Report == nil {
			http.Error(w, "no report collected yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(cur.Report)
	})
	mux.HandleFunc("/flamegraph", func(w http.ResponseWriter, r *http.Request) {
		s.serveFolded(w, r, s.name)
	})
	mux.HandleFunc("/flamegraph/", func(w http.ResponseWriter, r *http.Request) {
		s.serveFolded(w, r, strings.TrimPrefix(r.URL.Path, "/flamegraph/"))
	})
	mux.HandleFunc("/profiles/", func(w http.ResponseWriter, r *http.Request) {
		// Ingest the fleet aggregator's trace context: the handler span
		// adopts it (so it stitches under the aggregator's fleet.poll span),
		// and it is remembered so the next refresh attributes to this round.
		// Untraced requests (curl, the header-order test) mint no span — every
		// serve.handle_profile span therefore has a fleet ancestor, which is
		// what the stitch validator's -require-ancestor check pins.
		if remote, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			sp := s.span.SpanRemote("serve.handle_profile", remote, obs.A("path", r.URL.Path))
			defer sp.End()
			s.setFleetContext(remote)
		}
		name := strings.TrimPrefix(r.URL.Path, "/profiles/")
		cur := s.Current()
		if cur == nil || (name != cur.Name && name != cur.Name+".prof") {
			http.Error(w, "unknown profile "+name, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Profile-Generation", fmt.Sprint(cur.Generation))
		w.Write(cur.Profile)
	})
	// Count every request, whatever the endpoint.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) serveFolded(w http.ResponseWriter, r *http.Request, name string) {
	if q := r.URL.Query().Get("profile"); q != "" {
		name = q
	}
	cur := s.Current()
	if cur == nil || name != cur.Name {
		http.Error(w, "unknown profile "+name, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(cur.Folded)
}
