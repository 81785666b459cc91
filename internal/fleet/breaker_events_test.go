package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"csspgo/internal/obs"
)

// transition is one recorded (from, to) hook firing.
type transition struct{ from, to BreakerState }

// The transition hook observes the exact lifecycle sequence, including the
// lazy open -> half-open flip that only happens when State() is next read
// after the cooldown expires — never eagerly at the expiry instant.
func TestBreakerTransitionSequence(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock, BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second, HalfOpenSuccesses: 1})
	var got []transition
	b.setTransitionHook(func(from, to BreakerState) {
		got = append(got, transition{from, to})
	})

	// closed -> open: two consecutive failures.
	b.onFailure()
	if len(got) != 0 {
		t.Fatalf("transition before threshold: %+v", got)
	}
	b.onFailure()

	// Cooldown expiry alone fires nothing: the flip is lazy. Advance past
	// the cooldown, confirm no event until the state is actually read.
	clock.advance(11 * time.Second)
	if len(got) != 1 {
		t.Fatalf("cooldown expiry fired a transition eagerly: %+v", got)
	}
	// open -> half-open: observed on the next State() read.
	if s := b.State(); s != breakerHalfOpen {
		t.Fatalf("state after cooldown = %s", s)
	}

	// half-open -> open: a probe failure reopens immediately.
	b.onFailure()

	// open -> half-open again (via allow, which reads State), then
	// half-open -> closed after the single required probe success.
	clock.advance(11 * time.Second)
	if !b.allow() {
		t.Fatalf("probe rejected after fresh cooldown")
	}
	b.onSuccess()

	want := []transition{
		{breakerClosed, breakerOpen},
		{breakerOpen, breakerHalfOpen},
		{breakerHalfOpen, breakerOpen},
		{breakerOpen, breakerHalfOpen},
		{breakerHalfOpen, breakerClosed},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %s->%s, want %s->%s",
				i, got[i].from, got[i].to, want[i].from, want[i].to)
		}
	}
	// The hook sequence and the stats counters agree.
	if s := b.Stats(); s.Opens != 2 || s.HalfOpens != 2 || s.Closes != 1 {
		t.Fatalf("stats disagree with hook sequence: %+v", s)
	}
}

// The hook fires with the transition already applied: State() read from
// inside the hook returns the destination state.
func TestBreakerHookSeesAppliedState(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, HalfOpenSuccesses: 1})
	var states []BreakerState
	b.setTransitionHook(func(from, to BreakerState) {
		states = append(states, b.state) // raw field: State() would recurse on flips
	})
	b.onFailure()
	clock.advance(2 * time.Second)
	b.State()
	b.onSuccess()
	if len(states) != 3 ||
		states[0] != breakerOpen || states[1] != breakerHalfOpen || states[2] != breakerClosed {
		t.Fatalf("hook-observed states = %v", states)
	}
}

// Aggregator integration: breaker transitions land in the journal as
// cataloged breaker_* events carrying the source name, the round's logical
// clock, and the "from -> to" detail — drained in fleet order after the
// round barrier.
func TestAggregatorJournalsBreakerTransitions(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer bad.Close()

	cfg := testAggConfig()
	cfg.Fetch.Retries = 0
	cfg.Breaker.FailureThreshold = 1
	journal := obs.NewJournal()
	cfg.Journal = journal
	agg := NewAggregator([]*Source{{Name: "bad", URL: bad.URL}}, cfg, obs.NewRegistry())

	agg.RoundOnce(context.Background()) // fetch fails, trips threshold-1 breaker
	evs := journal.Events()
	if len(evs) != 1 {
		t.Fatalf("journal after trip: %+v", evs)
	}
	e := evs[0]
	if e.Type != obs.EvBreakerOpen || e.Source != "bad" || e.Round != 1 || e.Seq != 1 {
		t.Fatalf("breaker event = %+v", e)
	}
	if e.Detail != "closed -> open" {
		t.Fatalf("detail = %q, want %q", e.Detail, "closed -> open")
	}

	// Round 2: the open breaker short-circuits — no transition, no event.
	agg.RoundOnce(context.Background())
	if journal.Len() != 1 {
		t.Fatalf("short-circuited round emitted events: %+v", journal.Events())
	}
}
