// Package fleet is the fault-tolerant control plane for fleet-scale
// continuous PGO: it aggregates profiles from many `csspgo serve` instances
// over HTTP and survives a hostile fleet. Per-source fetches get deadlines
// and bounded, jitter-backed retries; a per-instance circuit breaker
// quarantines flapping sources; freshness windows and per-source sample
// quotas bound any one instance's influence before a weighted
// cross-instance merge; and a promotion gate with automatic rollback keeps
// the last-good merged artifact servable at all times — never torn, never
// replaced by a regressing candidate.
package fleet

import "time"

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState uint8

// Breaker states. Closed passes traffic; Open short-circuits it; HalfOpen
// lets probe traffic through to decide between the two.
const (
	breakerClosed BreakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes one source's circuit breaker. Zero values take the
// defaults below.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// from closed to open (default 3).
	FailureThreshold int
	// Cooldown is how long an open breaker short-circuits before letting a
	// half-open probe through (default 30s).
	Cooldown time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes close a
	// half-open breaker again (default 2).
	HalfOpenSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 2
	}
	return c
}

// BreakerStats counts state transitions and short-circuited calls; the
// aggregator publishes per-round deltas into the fleet.breaker.* metrics.
type BreakerStats struct {
	Opens         int64 // closed/half-open -> open transitions
	HalfOpens     int64 // open -> half-open transitions
	Closes        int64 // half-open -> closed transitions
	ShortCircuits int64 // calls rejected without touching the source
}

// Breaker is a per-source circuit breaker: closed -> open after
// FailureThreshold consecutive failures, open -> half-open after Cooldown,
// half-open -> closed after HalfOpenSuccesses probe successes (one probe
// failure reopens immediately). It is driven by one goroutine at a time
// (the aggregator serializes per-source state between rounds); the clock is
// injected so tests and the deterministic harness control time.
type Breaker struct {
	cfg  BreakerConfig
	now  func() time.Time
	hook func(from, to BreakerState)

	state     BreakerState
	failures  int
	successes int
	openedAt  time.Time
	stats     BreakerStats
}

// newBreaker returns a closed breaker. A nil clock means time.Now.
func newBreaker(cfg BreakerConfig, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg.withDefaults(), now: now}
}

// setTransitionHook installs a callback fired on every state transition
// (including the lazy open -> half-open flip inside State). The hook runs
// on the goroutine driving the breaker, with the transition already
// applied; the aggregator uses it to journal breaker events.
func (b *Breaker) setTransitionHook(hook func(from, to BreakerState)) { b.hook = hook }

func (b *Breaker) transitioned(from, to BreakerState) {
	if b.hook != nil {
		b.hook(from, to)
	}
}

// State returns the current state, first applying any due open -> half-open
// transition (cooldown expiry is observed lazily, on the next call).
func (b *Breaker) State() BreakerState {
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.state = breakerHalfOpen
		b.successes = 0
		b.stats.HalfOpens++
		b.transitioned(breakerOpen, breakerHalfOpen)
	}
	return b.state
}

// allow reports whether a call may proceed. Open short-circuits (and counts
// it); closed and half-open let the call through.
func (b *Breaker) allow() bool {
	if b.State() == breakerOpen {
		b.stats.ShortCircuits++
		return false
	}
	return true
}

// onSuccess records a successful call.
func (b *Breaker) onSuccess() {
	switch b.State() {
	case breakerHalfOpen:
		b.successes++
		if b.successes >= b.cfg.HalfOpenSuccesses {
			b.state = breakerClosed
			b.failures = 0
			b.successes = 0
			b.stats.Closes++
			b.transitioned(breakerHalfOpen, breakerClosed)
		}
	case breakerClosed:
		b.failures = 0
	}
}

// onFailure records a failed call. A half-open probe failure reopens the
// breaker immediately; in closed state the consecutive-failure count trips
// it at the threshold.
func (b *Breaker) onFailure() {
	switch b.State() {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

func (b *Breaker) trip() {
	from := b.state
	b.state = breakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.successes = 0
	b.stats.Opens++
	b.transitioned(from, breakerOpen)
}

// Stats returns the transition counters accumulated so far.
func (b *Breaker) Stats() BreakerStats { return b.stats }
