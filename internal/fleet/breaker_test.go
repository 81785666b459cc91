package fleet

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                           { return c.t }
func (c *fakeClock) advance(d time.Duration)                  { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                                { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestBreaker(c *fakeClock, cfg BreakerConfig) *Breaker { return newBreaker(cfg, c.now) }

// The full closed -> open -> half-open -> closed cycle, with transition
// counts checked at every step.
func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock, BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, HalfOpenSuccesses: 2})

	if b.State() != breakerClosed || !b.allow() {
		t.Fatalf("new breaker not closed/allowing")
	}
	// Two failures and a success: consecutive counter resets, stays closed.
	b.onFailure()
	b.onFailure()
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if b.State() != breakerClosed {
		t.Fatalf("breaker tripped below threshold")
	}
	b.onFailure() // third consecutive: trips
	if b.State() != breakerOpen {
		t.Fatalf("breaker did not trip at threshold, state=%s", b.State())
	}
	if b.allow() {
		t.Fatalf("open breaker allowed a call")
	}
	if s := b.Stats(); s.Opens != 1 || s.ShortCircuits != 1 {
		t.Fatalf("stats after trip: %+v", s)
	}

	// Cooldown expiry moves to half-open lazily.
	clock.advance(59 * time.Second)
	if b.allow() {
		t.Fatalf("open breaker allowed before cooldown")
	}
	clock.advance(2 * time.Second)
	if !b.allow() {
		t.Fatalf("half-open breaker rejected the probe")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state after cooldown = %s", b.State())
	}

	// Two probe successes close it again.
	b.onSuccess()
	if b.State() != breakerHalfOpen {
		t.Fatalf("closed after one probe success")
	}
	b.onSuccess()
	if b.State() != breakerClosed {
		t.Fatalf("did not close after enough probe successes")
	}
	s := b.Stats()
	if s.Opens != 1 || s.HalfOpens != 1 || s.Closes != 1 {
		t.Fatalf("transition stats: %+v", s)
	}
}

// A half-open probe failure reopens immediately and restarts the cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Second, HalfOpenSuccesses: 1})
	b.onFailure()
	if b.State() != breakerOpen {
		t.Fatalf("threshold-1 breaker did not trip on first failure")
	}
	clock.advance(11 * time.Second)
	if !b.allow() {
		t.Fatalf("probe rejected after cooldown")
	}
	b.onFailure()
	if b.State() != breakerOpen {
		t.Fatalf("half-open probe failure did not reopen")
	}
	// The reopened cooldown starts from the failure, not the original trip.
	clock.advance(9 * time.Second)
	if b.allow() {
		t.Fatalf("reopened breaker allowed before fresh cooldown elapsed")
	}
	clock.advance(2 * time.Second)
	if !b.allow() {
		t.Fatalf("reopened breaker rejected after fresh cooldown")
	}
	if s := b.Stats(); s.Opens != 2 || s.HalfOpens != 2 {
		t.Fatalf("reopen stats: %+v", s)
	}
}

// Flapping (fail, success, fail, ...) never trips a threshold-2 breaker in
// closed state, because successes reset the consecutive count — quarantine
// needs *consecutive* failures, which the aggregator's retry loop supplies
// when a source is truly down.
func TestBreakerFlappingResetsConsecutive(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock, BreakerConfig{FailureThreshold: 2, Cooldown: time.Second, HalfOpenSuccesses: 1})
	for i := 0; i < 10; i++ {
		b.onFailure()
		b.onSuccess()
	}
	if b.State() != breakerClosed {
		t.Fatalf("alternating outcomes tripped the breaker")
	}
	if s := b.Stats(); s.Opens != 0 {
		t.Fatalf("opens = %d, want 0", s.Opens)
	}
}
