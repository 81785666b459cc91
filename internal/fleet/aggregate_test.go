package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// testProfile builds a small flat probe-based profile; each named function
// gets a distinct, deterministic sample count.
func testProfile(names ...string) *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, false)
	for i, n := range names {
		fp := p.FuncProfile(n)
		fp.AddBody(profdata.LocKey{ID: 1}, uint64(100*(i+1)))
		fp.AddBody(profdata.LocKey{ID: 2}, uint64(40*(i+1)))
		fp.AddCall(profdata.LocKey{ID: 2}, "callee", uint64(10*(i+1)))
		fp.HeadSamples = uint64(5 * (i + 1))
	}
	return p
}

// profileServer serves a mutable binary profile payload plus generation
// header, the way a csspgo serve instance does.
type profileServer struct {
	mu    sync.Mutex
	body  []byte
	gen   uint64
	calls int
}

func newProfileServer(p *profdata.Profile, gen uint64) *profileServer {
	return &profileServer{body: profdata.EncodeBinary(p), gen: gen}
}

func (s *profileServer) set(p *profdata.Profile, gen uint64) {
	s.mu.Lock()
	s.body = profdata.EncodeBinary(p)
	s.gen = gen
	s.mu.Unlock()
}

func (s *profileServer) setRaw(body []byte, gen uint64) {
	s.mu.Lock()
	s.body = append([]byte(nil), body...)
	s.gen = gen
	s.mu.Unlock()
}

func (s *profileServer) requests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *profileServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body, gen := s.body, s.gen
	s.calls++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	if gen > 0 {
		w.Header().Set("X-Profile-Generation", strconv.FormatUint(gen, 10))
	}
	w.Write(body)
}

func testAggConfig() Config {
	return Config{
		Fetch: FetchConfig{
			Timeout:     time.Second,
			Retries:     1,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			JitterSeed:  11,
		},
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, HalfOpenSuccesses: 1},
	}
}

func outcomeFor(t *testing.T, r *Round, name string) SourceOutcome {
	t.Helper()
	for _, o := range r.Outcomes {
		if o.Source == name {
			return o
		}
	}
	t.Fatalf("no outcome for source %q in %+v", name, r.Outcomes)
	return SourceOutcome{}
}

// A healthy fleet merges every source, in fleet order, summing counts.
func TestAggregateHealthyFleet(t *testing.T) {
	pa, pb := testProfile("alpha"), testProfile("alpha", "beta")
	sa := httptest.NewServer(newProfileServer(pa, 1))
	sb := httptest.NewServer(newProfileServer(pb, 1))
	defer sa.Close()
	defer sb.Close()

	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{
		{Name: "a", URL: sa.URL},
		{Name: "b", URL: sb.URL},
	}, testAggConfig(), reg)

	round := agg.RoundOnce(context.Background())
	if round.Healthy != 2 || round.Merged == nil {
		t.Fatalf("healthy=%d merged=%v\n%s", round.Healthy, round.Merged, round.Summary())
	}
	want := pa.TotalSamples() + pb.TotalSamples()
	if got := round.Merged.TotalSamples(); got != want {
		t.Fatalf("merged samples = %d, want %d", got, want)
	}
	// alpha appears in both shards: counts accumulate.
	if got := round.Merged.Funcs["alpha"].BodyAt(profdata.LocKey{ID: 1}); got != 200 {
		t.Fatalf("alpha body = %d, want 200", got)
	}
	if reg.Counter(obs.MFleetRounds).Value() != 1 || reg.Counter(obs.MFleetMergeSources).Value() != 2 {
		t.Fatalf("round metrics not published")
	}
}

// Satellite coverage: a truncated *binary* profile fetched over HTTP must
// decode leniently — records skipped, no panic — and the skip count must
// land in fleet.decode.skipped_records. The healthy prefix still merges.
func TestAggregateIngestTruncatedBinary(t *testing.T) {
	full := testProfile("f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7")
	enc := profdata.EncodeBinary(full)
	trunc := enc[:len(enc)*2/3]

	// Pin the premise: the truncated payload decodes leniently with skips.
	prof, stats, err := profdata.DecodeLenient(trunc)
	if err != nil {
		t.Fatalf("truncated binary rejected outright: %v", err)
	}
	if stats.SkippedRecords == 0 {
		t.Fatalf("truncation at 2/3 skipped no records; test premise broken")
	}
	if prof.TotalSamples() >= full.TotalSamples() {
		t.Fatalf("truncated decode kept all samples")
	}

	ps := newProfileServer(full, 1)
	ps.setRaw(trunc, 1)
	srv := httptest.NewServer(ps)
	defer srv.Close()

	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{{Name: "trunc", URL: srv.URL}}, testAggConfig(), reg)
	round := agg.RoundOnce(context.Background())

	o := outcomeFor(t, round, "trunc")
	if o.State != StateMerged {
		t.Fatalf("truncated source state = %s (err=%s), want merged prefix", o.State, o.Err)
	}
	if o.Skipped != stats.SkippedRecords {
		t.Fatalf("outcome skipped = %d, want %d", o.Skipped, stats.SkippedRecords)
	}
	if got := reg.Counter(obs.MFleetDecodeSkipped).Value(); got != int64(stats.SkippedRecords) {
		t.Fatalf("fleet.decode.skipped_records = %d, want %d", got, stats.SkippedRecords)
	}
	if round.Merged == nil || round.Merged.TotalSamples() != prof.TotalSamples() {
		t.Fatalf("merged prefix samples = %v, want %d", round.Merged, prof.TotalSamples())
	}
}

// Satellite coverage: bit-flipped binary payloads must never panic the
// ingest path; whatever the lenient decoder salvages (or rejects) is
// reflected in the outcome and the skip/failure metrics.
func TestAggregateIngestBitFlippedBinary(t *testing.T) {
	full := testProfile("g0", "g1", "g2", "g3", "g4", "g5")
	enc := profdata.EncodeBinary(full)

	for seed := uint64(1); seed <= 8; seed++ {
		bad := append([]byte(nil), enc...)
		// Flip one bit per 32-byte stride past the header — heavy,
		// deterministic damage across the record stream.
		for pos := 16; pos < len(bad); pos += 32 {
			bad[pos] ^= byte(1 << (seed % 8))
		}
		wantProf, wantStats, wantErr := profdata.DecodeLenient(bad)

		ps := &profileServer{body: bad, gen: 1}
		srv := httptest.NewServer(ps)
		reg := obs.NewRegistry()
		agg := NewAggregator([]*Source{{Name: "rot", URL: srv.URL}}, testAggConfig(), reg)
		round := agg.RoundOnce(context.Background()) // must not panic
		srv.Close()

		o := outcomeFor(t, round, "rot")
		if wantErr != nil {
			if o.State != stateDecodeFailed {
				t.Fatalf("seed %d: state = %s, want decode-failed (%v)", seed, o.State, wantErr)
			}
			if reg.Counter(obs.MFleetDecodeFailures).Value() != 1 {
				t.Fatalf("seed %d: decode failure not counted", seed)
			}
			continue
		}
		if o.State != StateMerged {
			t.Fatalf("seed %d: state = %s (err=%s), want merged", seed, o.State, o.Err)
		}
		wantSkip := wantStats.SkippedRecords + wantStats.SkippedLines
		if o.Skipped != wantSkip || reg.Counter(obs.MFleetDecodeSkipped).Value() != int64(wantSkip) {
			t.Fatalf("seed %d: skipped = %d / metric %d, want %d",
				seed, o.Skipped, reg.Counter(obs.MFleetDecodeSkipped).Value(), wantSkip)
		}
		if round.Merged.TotalSamples() != wantProf.TotalSamples() {
			t.Fatalf("seed %d: merged samples diverge from direct lenient decode", seed)
		}
	}
}

// An epoch replay (generation moving backwards) is rejected and counts
// against the breaker.
func TestAggregateEpochReplayRejected(t *testing.T) {
	ps := newProfileServer(testProfile("f"), 5)
	srv := httptest.NewServer(ps)
	defer srv.Close()

	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{{Name: "s", URL: srv.URL}}, testAggConfig(), reg)

	if o := outcomeFor(t, agg.RoundOnce(context.Background()), "s"); o.State != StateMerged {
		t.Fatalf("warm-up round: %s (%s)", o.State, o.Err)
	}
	ps.set(testProfile("f"), 3) // rolled-back replica
	o := outcomeFor(t, agg.RoundOnce(context.Background()), "s")
	if o.State != StateEpochReplay {
		t.Fatalf("state = %s, want epoch-replay", o.State)
	}
	if reg.Counter(obs.MFleetEpochReplays).Value() != 1 {
		t.Fatalf("epoch replay not counted")
	}
	// Catching back up is accepted again.
	ps.set(testProfile("f"), 6)
	if o := outcomeFor(t, agg.RoundOnce(context.Background()), "s"); o.State != StateMerged {
		t.Fatalf("recovered source state = %s", o.State)
	}
}

// A source whose generation stagnates past the freshness window is dropped
// (without tripping the breaker — it is HTTP-healthy, just stale).
func TestAggregateFreshnessWindow(t *testing.T) {
	ps := newProfileServer(testProfile("f"), 7)
	srv := httptest.NewServer(ps)
	defer srv.Close()

	clock := newFakeClock()
	cfg := testAggConfig()
	cfg.Freshness = 10 * time.Second
	cfg.Now = clock.now
	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{{Name: "s", URL: srv.URL}}, cfg, reg)

	if o := outcomeFor(t, agg.RoundOnce(context.Background()), "s"); o.State != StateMerged {
		t.Fatalf("fresh round: %s", o.State)
	}
	clock.advance(11 * time.Second) // same generation, past the window
	o := outcomeFor(t, agg.RoundOnce(context.Background()), "s")
	if o.State != stateStale {
		t.Fatalf("state = %s, want stale", o.State)
	}
	if reg.Counter(obs.MFleetStaleDrops).Value() != 1 {
		t.Fatalf("stale drop not counted")
	}
	if agg.sources[0].breaker.State() != breakerClosed {
		t.Fatalf("staleness tripped the breaker")
	}
	// A new generation revives the source.
	ps.set(testProfile("f"), 8)
	if o := outcomeFor(t, agg.RoundOnce(context.Background()), "s"); o.State != StateMerged {
		t.Fatalf("revived source state = %s", o.State)
	}
}

// Quota clamps an oversized source's contribution; weights scale a source up.
func TestAggregateQuotaAndWeight(t *testing.T) {
	big := testProfile("hog1", "hog2", "hog3") // 840 samples
	small := testProfile("mouse")              // 140 samples
	sb := httptest.NewServer(newProfileServer(big, 1))
	sm := httptest.NewServer(newProfileServer(small, 1))
	defer sb.Close()
	defer sm.Close()

	cfg := testAggConfig()
	cfg.Quota = 300
	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{
		{Name: "hog", URL: sb.URL},
		{Name: "mouse", URL: sm.URL, Weight: 3},
	}, cfg, reg)

	round := agg.RoundOnce(context.Background())
	ho := outcomeFor(t, round, "hog")
	if !ho.Clamped || ho.Samples > 300 {
		t.Fatalf("hog not clamped to quota: %+v", ho)
	}
	if reg.Counter(obs.MFleetQuotaClamps).Value() != 1 {
		t.Fatalf("quota clamp not counted")
	}
	mo := outcomeFor(t, round, "mouse")
	if mo.Samples != 3*small.TotalSamples() {
		t.Fatalf("mouse samples = %d, want %d", mo.Samples, 3*small.TotalSamples())
	}
	if round.Merged.TotalSamples() != ho.Samples+mo.Samples {
		t.Fatalf("merged total %d != %d+%d", round.Merged.TotalSamples(), ho.Samples, mo.Samples)
	}
}

// A downed source trips its breaker after consecutive failed rounds; while
// the breaker is open the aggregator stops calling it entirely, and the rest
// of the fleet keeps merging.
func TestAggregateBreakerQuarantine(t *testing.T) {
	good := httptest.NewServer(newProfileServer(testProfile("ok"), 1))
	defer good.Close()
	var badCalls atomic.Int64
	badSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer badSrv.Close()

	cfg := testAggConfig()
	cfg.Fetch.Retries = 0
	reg := obs.NewRegistry()
	agg := NewAggregator([]*Source{
		{Name: "good", URL: good.URL},
		{Name: "bad", URL: badSrv.URL},
	}, cfg, reg)

	// Two failed rounds trip the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		r := agg.RoundOnce(context.Background())
		if o := outcomeFor(t, r, "bad"); o.State != stateFetchFailed {
			t.Fatalf("round %d: bad state = %s", i, o.State)
		}
		if r.Healthy != 1 || r.Merged == nil {
			t.Fatalf("round %d: healthy fleet did not keep merging", i)
		}
	}
	reqs := badCalls.Load()
	r := agg.RoundOnce(context.Background())
	if o := outcomeFor(t, r, "bad"); o.State != stateBreakerOpen {
		t.Fatalf("state = %s, want breaker-open", o.State)
	}
	if badCalls.Load() != reqs {
		t.Fatalf("open breaker still let requests through")
	}
	if reg.Counter(obs.MFleetBreakerOpens).Value() != 1 ||
		reg.Counter(obs.MFleetBreakerShortCircuits).Value() != 1 {
		t.Fatalf("breaker metrics: opens=%d shorts=%d",
			reg.Counter(obs.MFleetBreakerOpens).Value(),
			reg.Counter(obs.MFleetBreakerShortCircuits).Value())
	}
}

// Sources disagreeing on profile kind cannot merge: later shards with a
// different kind than the first are excluded, not silently mixed.
func TestAggregateKindMismatchExcluded(t *testing.T) {
	probe := testProfile("f")
	line := profdata.New(profdata.LineBased, false)
	line.FuncProfile("f").AddBody(profdata.LocKey{ID: 1}, 50)

	sp := httptest.NewServer(newProfileServer(probe, 1))
	sl := httptest.NewServer(newProfileServer(line, 1))
	defer sp.Close()
	defer sl.Close()

	agg := NewAggregator([]*Source{
		{Name: "probe", URL: sp.URL},
		{Name: "line", URL: sl.URL},
	}, testAggConfig(), obs.NewRegistry())
	round := agg.RoundOnce(context.Background())
	if o := outcomeFor(t, round, "line"); o.State != stateKindMismatch {
		t.Fatalf("line source state = %s, want kind-mismatch", o.State)
	}
	if round.Merged == nil || round.Merged.Kind != profdata.ProbeBased {
		t.Fatalf("merged profile wrong: %v", round.Merged)
	}
	if round.Merged.TotalSamples() != probe.TotalSamples() {
		t.Fatalf("mismatched shard leaked into the merge")
	}
}
