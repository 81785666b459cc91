package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"csspgo/internal/obs"
)

// StatusServer is the aggregator's observability surface: the obs.Status
// it shares with the `csspgo serve` daemon, to which the fleet contributes
// the last round's outcome and the per-source circuit-breaker states
// (/healthz) and the per-source profile-confidence summaries (/overhead).
// All state it reads is either snapshotted under one epoch (metrics) or
// copied under its own lock, so a scrape mid-round never observes a torn
// view.
type StatusServer struct {
	status obs.Status

	mu          sync.Mutex
	round       uint64
	healthy     int
	generation  uint64
	lastOutcome string // "promoted", "rolled-back", "no-candidate", ...
	agg         *Aggregator
}

// NewStatusServer wires the aggregator's registry, journal, and time-series
// store into a status surface (journal and series may be nil — their
// endpoints then serve empty documents).
func NewStatusServer(reg *obs.Registry, journal *obs.Journal, series *obs.TimeSeries) *StatusServer {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &StatusServer{lastOutcome: "none"}
	s.status = obs.Status{
		Title: "csspgo fleet", Reg: reg, Series: series, Journal: journal,
		Health: s.health, Overhead: s.overhead,
	}
	return s
}

// ObserveRound records one round's outcome for /healthz.
func (s *StatusServer) ObserveRound(round uint64, healthy int, generation uint64, outcome string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round = round
	s.healthy = healthy
	s.generation = generation
	s.lastOutcome = outcome
}

// SetAggregator attaches the aggregator whose live per-source state the
// status surface reports: circuit-breaker states on /healthz and
// profile-confidence summaries on /overhead.
func (s *StatusServer) SetAggregator(agg *Aggregator) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.agg = agg
	s.mu.Unlock()
}

// health is the fleet's /healthz contribution.
func (s *StatusServer) health() map[string]any {
	s.mu.Lock()
	st := map[string]any{
		"round":      s.round,
		"healthy":    s.healthy,
		"generation": s.generation,
		"last_round": s.lastOutcome,
	}
	agg := s.agg
	s.mu.Unlock()
	if agg != nil {
		// Per-source circuit-breaker states (closed / open / half-open):
		// a map keyed by source name, so the JSON shape is stable and
		// the states marshal in sorted source order.
		states := map[string]string{}
		for _, src := range agg.sources {
			states[src.Name] = src.breaker.State().String()
		}
		st["sources"] = states
	}
	return st
}

// overhead is the fleet's /overhead document: the per-source confidence
// summaries, once an aggregator is attached.
func (s *StatusServer) overhead() ([]byte, bool) {
	s.mu.Lock()
	agg := s.agg
	s.mu.Unlock()
	if agg == nil {
		return nil, false
	}
	rows := agg.confidenceSummaries()
	low := 0
	for _, sc := range rows {
		if sc.HotUncertain > 0 {
			low++
		}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{"sources": rows, "low_sources": low})
	return buf.Bytes(), true
}

// Handler returns the status HTTP handler (obs.StatusEndpoints is its
// probe list; obs.Serve runs it).
func (s *StatusServer) Handler() http.Handler {
	mux := http.NewServeMux()
	s.status.Mount(mux)
	return mux
}

// OutcomeString summarizes one round + gate result for /healthz (the fleet
// CLI feeds it to ObserveRound).
func OutcomeString(round *Round, promoted bool, gated bool) string {
	switch {
	case round.Merged == nil:
		return "no-candidate"
	case promoted:
		return "promoted"
	case gated:
		return "rolled-back"
	default:
		return fmt.Sprintf("merged-%d", round.Healthy)
	}
}
