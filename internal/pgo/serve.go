package pgo

import (
	"fmt"
	"sync"

	"csspgo/internal/obs"
	"csspgo/internal/overhead"
	"csspgo/internal/preinline"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// This file is the serving-daemon glue: it packages the train → sample →
// generate pipeline as a refresh closure `csspgo serve` hands to
// introspect.Server.RefreshLoop, so the daemon re-profiles a workload on a
// timer and atomically swaps in each fresh profile (the paper's continuous
// production-profiling loop, §II).

// SeededRequests builds n two-argument requests from a deterministic
// xorshift stream (the same generator the CLI uses for `csspgo run`
// and `csspgo profile` request streams).
func SeededRequests(n int, seed, bound int64) [][]int64 {
	if bound <= 0 {
		bound = 1
	}
	out := make([][]int64, n)
	x := uint64(seed)*2654435761 + 12345
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(bound))
	}
	for i := range out {
		out[i] = []int64{next(), next()}
	}
	return out
}

// OverheadSink receives the normalized csspgo-overhead/v1 artifact a
// refresher produces each generation (introspect.Server implements it for
// its /overhead endpoint).
type OverheadSink interface {
	SetOverhead(data []byte)
}

// OverheadObs wires the overhead observatory into a refresher: each
// refresh's cost ledger goes to Sink, breaches of the overhead budget and
// hot-uncertain confidence findings are journaled, and the budget-breach
// count is published under overhead.budget_breaches.
type OverheadObs struct {
	Sink    OverheadSink // nil = no artifact delivery
	Journal *obs.Journal // nil = no events
	// BudgetPct is the allowed profiling overhead (attributed cycles as a
	// percentage of application cycles); 0 disables the budget check.
	BudgetPct float64
	// Source labels emitted events (the daemon's profile name).
	Source string

	gen uint64 // refresh generation, the events' logical round clock
}

// observe processes one refresh's ledger (called under the refresher's
// mutex, so the generation counter needs no further locking).
func (o *OverheadObs) observe(rep *overhead.Report, reg *obs.Registry) {
	if o == nil {
		return
	}
	o.gen++
	if o.BudgetPct > 0 && rep.Totals.OverheadPct > o.BudgetPct {
		reg.Counter(obs.MOverheadBudgetBreaches).Add(1)
		o.Journal.Emit(obs.Event{
			Type: obs.EvOverheadBudgetBreach, Round: o.gen, Source: o.Source,
			Metrics: map[string]float64{
				"overhead_pct": rep.Totals.OverheadPct,
				"budget_pct":   o.BudgetPct,
			},
			Detail: fmt.Sprintf("profiling overhead %.3f%% exceeds budget %.3f%%",
				rep.Totals.OverheadPct, o.BudgetPct),
		})
	}
	if c := rep.Confidence; c != nil && c.HotUncertain > 0 {
		o.Journal.Emit(obs.Event{
			Type: obs.EvConfidenceLow, Round: o.gen, Source: o.Source,
			Metrics: map[string]float64{
				"hot_uncertain": float64(c.HotUncertain),
				"total_samples": float64(c.TotalSamples),
			},
			Detail: fmt.Sprintf("%d hot function(s) below the %.1f%% relative-error bound",
				c.HotUncertain, c.MaxRelErrPct),
		})
	}
	if o.Sink != nil {
		rep.Normalize()
		if data, err := rep.Encode(); err == nil {
			o.Sink.SetOverhead(data)
		}
	}
}

// NewRefresher builds the probed training binary once, decodes it and
// extracts its sizes once, and returns a refresh closure that re-samples
// the train stream and regenerates the CS profile (trimmed + pre-inlined,
// like the FullCS pipeline) on every call, together with a run manifest of
// that collection. Collection runs metered (MeasureOverhead), so when reg
// is non-nil each refresh publishes the overhead.* ledger into it, and
// from the second refresh on the profile-diff analytics against the
// previous generation (quality.context_overlap and friends) — the serving
// daemon's /metrics then shows what profiling costs and how much the
// profile moved between swaps. The closure is safe for use from a single
// refresh goroutine.
func NewRefresher(files []*source.File, train [][]int64, pc ProfileConfig, reg *obs.Registry) (func() (*profdata.Profile, *obs.Report, error), error) {
	return NewRefresherObserved(files, train, pc, reg, nil)
}

// NewRefresherObserved is NewRefresher with the overhead observatory's
// outputs attached: oo (when non-nil) receives each refresh's artifact and
// emits budget/confidence events.
func NewRefresherObserved(files []*source.File, train [][]int64, pc ProfileConfig, reg *obs.Registry, oo *OverheadObs) (func() (*profdata.Profile, *obs.Report, error), error) {
	base, err := Build(files, BuildConfig{Probes: true})
	if err != nil {
		return nil, fmt.Errorf("pgo: build training binary: %w", err)
	}
	code := sim.Decode(base.Bin, sim.ProfilingCostParams())
	sizes := preinline.ExtractSizes(base.Bin)
	var mu sync.Mutex
	var prev *profdata.Profile
	return func() (*profdata.Profile, *obs.Report, error) {
		obsrv := NewRunObserver()
		rpc := pc
		rpc.Stacks = true
		obsrv.ObserveProfile(&rpc)
		ohRep, prof, err := measureOverhead(code, train, rpc)
		if err != nil {
			return nil, nil, err
		}
		trimAndPreInline(prof, sizes, 0)
		ohRep.Publish(reg)
		ohRep.Publish(obsrv.Metrics)

		mu.Lock()
		if prev != nil {
			d := quality.DiffProfiles(prev, prof)
			d.Publish(reg)
			d.Publish(obsrv.Metrics)
		}
		prev = prof
		oo.observe(ohRep, reg)
		mu.Unlock()

		echo := map[string]any{
			"requests": len(train), "period": rpc.Period, "pebs": rpc.PEBS,
		}
		return prof, obsrv.Report("csspgo serve", echo), nil
	}, nil
}
