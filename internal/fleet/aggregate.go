package fleet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"csspgo/internal/obs"
	"csspgo/internal/overhead"
	"csspgo/internal/profdata"
)

// Source is one serving instance the aggregator polls. URL points at the
// instance's profile endpoint (`http://host:port/profiles/<name>`). The
// unexported fields are the aggregator's per-source health state; a Source
// must not be shared between aggregators.
type Source struct {
	Name   string
	URL    string
	Weight uint64 // merge weight (0 means 1): counts are scaled by Weight before merging

	breaker *Breaker
	lastGen uint64    // highest X-Profile-Generation observed
	advance time.Time // when lastGen last advanced
	seen    bool      // any generation observed yet
	// pending buffers this source's journal events for the current round.
	// Only the source's own poll goroutine appends (one per round, rounds
	// sequential), and RoundOnce drains after the round barrier in fleet
	// order — so the journal is deterministic even though polls race.
	pending []obs.Event
}

// Config tunes one aggregator.
type Config struct {
	Fetch   FetchConfig
	Breaker BreakerConfig
	// Quota caps any one source's contributed samples per round: a source
	// whose decoded profile carries more is scaled down to the quota before
	// merging, so a count-inflating (or merely enormous) instance cannot
	// dominate the merge. 0 disables the clamp.
	Quota uint64
	// Freshness excludes a source whose profile generation has not advanced
	// for longer than this window — it is serving, but serving stale data.
	// 0 disables the check.
	Freshness time.Duration
	// Now is the clock used for freshness accounting (nil = time.Now).
	Now func() time.Time
	// Trace, when set, records fleet.round / fleet.fetch / fleet.merge
	// spans under it (nil-safe like every span in the pipeline). Each
	// source's poll gets its own fleet.poll span, whose context rides the
	// fetch as a traceparent header so instance-side spans link back here.
	Trace *obs.Span
	// Journal, when set, receives the round's structured events (breaker
	// transitions, policy exclusions), drained in fleet order after each
	// round so the journal is deterministic.
	Journal *obs.Journal
}

// SourceState classifies one source's outcome in a round.
type SourceState string

// Source outcomes. Only StateMerged contributes to the merged profile.
const (
	StateMerged       SourceState = "merged"
	stateBreakerOpen  SourceState = "breaker-open"
	stateFetchFailed  SourceState = "fetch-failed"
	stateDecodeFailed SourceState = "decode-failed"
	StateEpochReplay  SourceState = "epoch-replay"
	stateStale        SourceState = "stale"
	stateKindMismatch SourceState = "kind-mismatch"
)

// SourceOutcome is one source's result in one aggregation round.
type SourceOutcome struct {
	Source     string
	State      SourceState
	Attempts   int
	Generation uint64
	Samples    uint64 // samples contributed after quota clamp and weighting
	Clamped    bool   // quota clamp applied
	Skipped    int    // records+lines the lenient decoder discarded
	Err        string // failure detail (empty on success)
}

// Round is the result of one aggregation pass over the fleet.
type Round struct {
	// Merged is the weighted cross-instance merge of every healthy source
	// (nil when no source could be merged).
	Merged   *profdata.Profile
	Outcomes []SourceOutcome
	Healthy  int // sources in StateMerged
	// Num is the aggregator's 1-based round number — the logical clock the
	// journal and time-series store stamp into their records.
	Num uint64
	// Ctx is the fleet.round span's context (zero when untraced); the
	// promoter attributes its gate events to it.
	Ctx obs.SpanContext
}

// Summary renders one line per source, in fleet order.
func (r *Round) Summary() string {
	var sb strings.Builder
	for _, o := range r.Outcomes {
		fmt.Fprintf(&sb, "  %-12s %-14s gen=%-4d attempts=%d samples=%d", o.Source, o.State, o.Generation, o.Attempts, o.Samples)
		if o.Clamped {
			sb.WriteString(" clamped")
		}
		if o.Skipped > 0 {
			fmt.Fprintf(&sb, " skipped=%d", o.Skipped)
		}
		if o.Err != "" {
			fmt.Fprintf(&sb, " err=%s", o.Err)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Aggregator polls a fixed fleet of sources and merges their profiles.
// Rounds are sequential (RoundOnce is not reentrant); within a round the
// sources are fetched concurrently and merged in fleet order, so the merged
// profile is deterministic in which sources succeeded, never in timing.
type Aggregator struct {
	cfg     Config
	sources []*Source
	fetcher *fetcher
	reg     *obs.Registry
	now     func() time.Time
	round   uint64 // rounds completed + 1 during RoundOnce (1-based)

	// confMu guards conf, the per-source confidence summaries from the
	// latest round each source decoded successfully (poll goroutines write,
	// the status server's /overhead endpoint reads concurrently).
	confMu sync.Mutex
	conf   map[string]*overhead.ConfidenceReport
}

// NewAggregator adopts the sources (installing a breaker on each) and
// publishes fleet.* metrics into reg (which may be nil for none).
func NewAggregator(sources []*Source, cfg Config, reg *obs.Registry) *Aggregator {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	for _, s := range sources {
		s.breaker = newBreaker(cfg.Breaker, now)
		if s.Weight == 0 {
			s.Weight = 1
		}
		// Journal every breaker transition. The hook fires on the source's
		// own poll goroutine, so buffering into pending is race-free.
		src := s
		s.breaker.setTransitionHook(func(from, to BreakerState) {
			src.pending = append(src.pending, obs.Event{
				Type:   breakerEventType(to),
				Source: src.Name,
				Detail: fmt.Sprintf("%s -> %s", from, to),
			})
		})
	}
	return &Aggregator{
		cfg:     cfg,
		sources: sources,
		fetcher: newFetcher(cfg.Fetch),
		reg:     reg,
		now:     now,
		conf:    map[string]*overhead.ConfidenceReport{},
	}
}

// sourceConfidence is one source's profile-confidence summary, the
// fleet-level aggregation the status server's /overhead endpoint reports.
type sourceConfidence struct {
	Source           string `json:"source"`
	TotalSamples     uint64 `json:"total_samples"`
	HotConfident     int    `json:"hot_confident"`
	HotUncertain     int    `json:"hot_uncertain"`
	ColdInstrumented int    `json:"cold_instrumented"`
}

// confidenceSummaries returns the latest per-source confidence summaries,
// in fleet order (sources that never decoded a profile are omitted).
func (a *Aggregator) confidenceSummaries() []sourceConfidence {
	a.confMu.Lock()
	defer a.confMu.Unlock()
	var out []sourceConfidence
	for _, s := range a.sources {
		c := a.conf[s.Name]
		if c == nil {
			continue
		}
		out = append(out, sourceConfidence{
			Source:           s.Name,
			TotalSamples:     c.TotalSamples,
			HotConfident:     c.HotConfident,
			HotUncertain:     c.HotUncertain,
			ColdInstrumented: c.ColdInstrumented,
		})
	}
	return out
}

// observeConfidence scores a source's freshly decoded profile, stores the
// summary for the status surface, and buffers a confidence_low event when
// the source's hot set is under-sampled. Runs on the source's poll
// goroutine; only the summary map needs locking.
func (a *Aggregator) observeConfidence(s *Source, prof *profdata.Profile) {
	c := overhead.ScoreProfile(prof, 0)
	a.confMu.Lock()
	a.conf[s.Name] = c
	a.confMu.Unlock()
	if c.HotUncertain > 0 {
		s.pending = append(s.pending, obs.Event{
			Type: obs.EvConfidenceLow, Source: s.Name,
			Metrics: map[string]float64{
				"hot_uncertain": float64(c.HotUncertain),
				"total_samples": float64(c.TotalSamples),
			},
			Detail: fmt.Sprintf("%d hot function(s) below the %.1f%% relative-error bound",
				c.HotUncertain, c.MaxRelErrPct),
		})
	}
}

// RoundOnce fetches every admissible source once (concurrently, each under
// its own deadline/retry budget), applies freshness, epoch, quota and
// weight policy, and merges the survivors in fleet order.
func (a *Aggregator) RoundOnce(ctx context.Context) *Round {
	start := a.now()
	a.round++
	rsp := a.cfg.Trace.Span("fleet.round", obs.A("round", a.round))
	defer rsp.End()

	type slot struct {
		outcome SourceOutcome
		prof    *profdata.Profile
	}
	slots := make([]slot, len(a.sources))

	fsp := rsp.Span("fleet.fetch", obs.A("sources", len(a.sources)))
	var wg sync.WaitGroup
	for i, s := range a.sources {
		wg.Add(1)
		go func(i int, s *Source) {
			defer wg.Done()
			slots[i].outcome, slots[i].prof = a.pollSource(ctx, s, fsp)
		}(i, s)
	}
	wg.Wait()
	fsp.End()
	a.drainEvents(rsp.Context())

	round := &Round{Num: a.round, Ctx: rsp.Context()}
	msp := rsp.Span("fleet.merge")
	var shards []*profdata.Profile
	var kind profdata.Kind
	cs := false
	for i := range slots {
		o := &slots[i].outcome
		if o.State == StateMerged {
			p := slots[i].prof
			if len(shards) == 0 {
				kind = p.Kind
			} else if p.Kind != kind {
				o.State = stateKindMismatch
				o.Err = fmt.Sprintf("profile kind %s, fleet merges %s", p.Kind, kind)
				o.Samples = 0
				a.reg.Counter(obs.MFleetDecodeFailures).Add(1)
				round.Outcomes = append(round.Outcomes, *o)
				continue
			}
			cs = cs || p.CS
			shards = append(shards, p)
			round.Healthy++
		}
		round.Outcomes = append(round.Outcomes, *o)
	}
	if len(shards) > 0 {
		round.Merged = profdata.MergeShards(shards)
		round.Merged.CS = cs
		// The merge family is one epoch: a /metrics scrape must never see
		// sources updated but samples not.
		a.reg.Grouped(func() {
			a.reg.Counter(obs.MFleetMergeSources).Add(int64(len(shards)))
			a.reg.Counter(obs.MFleetMergeSamples).Add(int64(round.Merged.TotalSamples()))
		})
	}
	msp.End()
	low := 0
	for _, sc := range a.confidenceSummaries() {
		if sc.HotUncertain > 0 {
			low++
		}
	}
	a.reg.Grouped(func() {
		a.reg.Counter(obs.MFleetRounds).Add(1)
		a.reg.Gauge(obs.MFleetConfidenceLowSources).Set(float64(low))
		a.reg.Histogram(obs.MFleetRoundNS).Observe(a.now().Sub(start).Nanoseconds())
	})
	return round
}

// breakerEventType maps a breaker's post-transition state to its event.
func breakerEventType(to BreakerState) obs.EventType {
	switch to {
	case breakerOpen:
		return obs.EvBreakerOpen
	case breakerHalfOpen:
		return obs.EvBreakerHalfOpen
	default:
		return obs.EvBreakerClose
	}
}

// drainEvents moves every source's buffered events into the journal, in
// fleet order, stamped with the round number and the round span's context.
// Buffers are cleared even without a journal so they cannot grow unbounded.
func (a *Aggregator) drainEvents(rctx obs.SpanContext) {
	for _, s := range a.sources {
		for _, e := range s.pending {
			e.Round = a.round
			e.TraceID = rctx.TraceID
			e.SpanID = rctx.SpanID
			a.emit(e)
		}
		s.pending = s.pending[:0]
	}
}

// emit journals one event and counts it (no-op without a journal).
func (a *Aggregator) emit(e obs.Event) {
	if a.cfg.Journal == nil {
		return
	}
	a.cfg.Journal.Emit(e)
	a.reg.Grouped(func() {
		a.reg.Counter(obs.MFleetEventsEmitted).Add(1)
		if e.Type == obs.EvOverlapDegrading {
			a.reg.Counter(obs.MFleetEventsOverlapDegrading).Add(1)
		}
	})
}

// pollSource runs one source through the round's admission pipeline:
// breaker, fetch, lenient decode, epoch/freshness policy, quota clamp,
// weighting. It returns the outcome and, for StateMerged, the scaled
// profile ready to merge.
func (a *Aggregator) pollSource(ctx context.Context, s *Source, parent *obs.Span) (SourceOutcome, *profdata.Profile) {
	o := SourceOutcome{Source: s.Name}
	before := s.breaker.Stats()
	defer func() { a.publishBreakerDelta(before, s.breaker.Stats()) }()

	if !s.breaker.allow() {
		o.State = stateBreakerOpen
		o.Err = "circuit breaker open"
		return o, nil
	}

	// The poll span's context rides the fetch as a traceparent header: the
	// instance adopts it, so its handler/refresh spans stitch under this
	// round's trace.
	psp := parent.Span("fleet.poll", obs.A("source", s.Name))
	defer psp.End()
	res, err := a.fetcher.fetch(ctx, s.URL, psp.Context().Traceparent())
	o.Attempts = res.Attempts
	a.reg.Grouped(func() {
		a.reg.Counter(obs.MFleetFetchAttempts).Add(int64(res.Attempts))
		if res.Attempts > 1 {
			a.reg.Counter(obs.MFleetFetchRetries).Add(int64(res.Attempts - 1))
		}
	})
	if err != nil {
		s.breaker.onFailure()
		a.reg.Counter(obs.MFleetFetchFailures).Add(1)
		o.State = stateFetchFailed
		o.Err = err.Error()
		return o, nil
	}

	prof, stats, err := profdata.DecodeLenient(res.Body)
	o.Skipped = stats.SkippedRecords + stats.SkippedLines
	if o.Skipped > 0 {
		a.reg.Counter(obs.MFleetDecodeSkipped).Add(int64(o.Skipped))
		s.pending = append(s.pending, obs.Event{
			Type: obs.EvDecodeSkip, Source: s.Name,
			Metrics: map[string]float64{"skipped_records": float64(o.Skipped)},
			Detail:  "lenient decoder discarded records",
		})
	}
	if err != nil {
		// A payload even the lenient decoder rejects is a source fault, the
		// same as a failed fetch: it counts against the breaker.
		s.breaker.onFailure()
		a.reg.Counter(obs.MFleetDecodeFailures).Add(1)
		o.State = stateDecodeFailed
		o.Err = err.Error()
		return o, nil
	}

	// Confidence is scored on the decoded (unscaled) payload: quota and
	// weight scaling change merge arithmetic, not the instance's own
	// statistical strength.
	a.observeConfidence(s, prof)

	// Per-source state below is touched only by this source's goroutine
	// (one per round, rounds sequential), so no locking is needed.
	o.Generation = res.Generation
	now := a.now()
	if res.Generation > 0 {
		switch {
		case s.seen && res.Generation < s.lastGen:
			// A generation older than one we already saw: a replayed or
			// rolled-back artifact. Reject it and count it against the
			// breaker — a replaying source is a faulty source.
			s.breaker.onFailure()
			a.reg.Counter(obs.MFleetEpochReplays).Add(1)
			o.State = StateEpochReplay
			o.Err = fmt.Sprintf("generation %d older than observed %d", res.Generation, s.lastGen)
			return o, nil
		case !s.seen || res.Generation > s.lastGen:
			s.lastGen = res.Generation
			s.advance = now
			s.seen = true
		}
	}
	stale := a.cfg.Freshness > 0 && s.seen && now.Sub(s.advance) > a.cfg.Freshness

	// The source answered correctly — it is healthy HTTP-wise even if its
	// data is stale, so the breaker hears success either way.
	s.breaker.onSuccess()
	if stale {
		a.reg.Counter(obs.MFleetStaleDrops).Add(1)
		s.pending = append(s.pending, obs.Event{
			Type: obs.EvFreshnessExclusion, Source: s.Name,
			Metrics: map[string]float64{"generation": float64(o.Generation)},
			Detail:  fmt.Sprintf("generation stagnant beyond %s", a.cfg.Freshness),
		})
		o.State = stateStale
		o.Err = fmt.Sprintf("generation %d stagnant beyond %s", o.Generation, a.cfg.Freshness)
		return o, nil
	}

	total := prof.TotalSamples()
	if a.cfg.Quota > 0 && total > a.cfg.Quota {
		scaleProfile(prof, a.cfg.Quota, total)
		a.reg.Counter(obs.MFleetQuotaClamps).Add(1)
		s.pending = append(s.pending, obs.Event{
			Type: obs.EvQuotaClamp, Source: s.Name,
			Metrics: map[string]float64{"samples": float64(total), "quota": float64(a.cfg.Quota)},
			Detail:  "contribution scaled down to quota",
		})
		o.Clamped = true
		total = prof.TotalSamples()
	}
	if s.Weight > 1 {
		scaleProfile(prof, s.Weight, 1)
		total = prof.TotalSamples()
	}
	o.Samples = total
	o.State = StateMerged
	return o, prof
}

func (a *Aggregator) publishBreakerDelta(before, after BreakerStats) {
	// One epoch: the breaker family's transition counters move together, so
	// a concurrent scrape cannot see an open without its matching half-open.
	a.reg.Grouped(func() {
		if d := after.Opens - before.Opens; d > 0 {
			a.reg.Counter(obs.MFleetBreakerOpens).Add(d)
		}
		if d := after.HalfOpens - before.HalfOpens; d > 0 {
			a.reg.Counter(obs.MFleetBreakerHalfOpens).Add(d)
		}
		if d := after.Closes - before.Closes; d > 0 {
			a.reg.Counter(obs.MFleetBreakerCloses).Add(d)
		}
		if d := after.ShortCircuits - before.ShortCircuits; d > 0 {
			a.reg.Counter(obs.MFleetBreakerShortCircuits).Add(d)
		}
	})
}

// scaleProfile multiplies every count in p by num/den (quota clamps and
// merge weights).
func scaleProfile(p *profdata.Profile, num, den uint64) {
	for _, fp := range p.Funcs {
		fp.Scale(num, den)
	}
	for _, fp := range p.Contexts {
		fp.Scale(num, den)
	}
}
