package obs

import (
	"fmt"
	"regexp"
	"strings"
)

// The unified metric namespace. Every pipeline publisher records under a
// constant declared here, so the whole namespace is auditable in one place;
// Registry checks every other name the first time it is registered.
//
// Naming conventions:
//   - dotted lowercase path: <subsystem>.<area>.<metric> (at least one dot)
//   - characters: [a-z0-9_] per segment
//   - wall-clock timing metrics end in "_ns" and are zeroed by
//     Report.Normalize (they are the only nondeterministic metrics)
const (
	// internal/sampling — virtual unwinder (Algorithm 1).
	MUnwindSamplesAccepted  = "unwind.samples_accepted"
	MUnwindSamplesDropped   = "unwind.samples_dropped"
	MUnwindRanges           = "unwind.ranges"
	MUnwindRangesTruncated  = "unwind.ranges_truncated"
	MUnwindSkidAdjusted     = "unwind.skid_adjusted"
	MUnwindMissingFrames    = "unwind.missing_frame_events"
	MUnwindEventsRecovered  = "unwind.events_recovered"
	MUnwindFramesRecovered  = "unwind.frames_recovered"
	MShardWorkerBusyNS      = "shard.worker_busy_ns"
	MShardTailGraphBuildNS  = "shard.tailgraph_build_ns"
	MStreamChunks           = "stream.chunks"
	MStreamContexts         = "stream.pending_contexts"
	MStreamDistinctSamples  = "stream.distinct_samples" // groups unwound, summed over chunks; a materialized slice is one chunk
	MProfileGenSamples      = "profilegen.samples"
	MProfileGenFuncProfiles = "profilegen.func_profiles"
	MProfileGenContexts     = "profilegen.contexts"

	// internal/opt — profile annotation.
	MAnnotateFuncs     = "annotate.funcs_annotated"
	MAnnotateStale     = "annotate.funcs_stale"
	MAnnotateNoProfile = "annotate.funcs_no_profile"

	// internal/stale — anchor matcher and the degradation ladder.
	MStaleMatchAttempts    = "stale.match.attempts"
	MStaleMatchAccepted    = "stale.match.accepted"
	MStaleMatchRejected    = "stale.match.rejected_low_quality"
	MStaleMatchedFuncs     = "stale.ladder.matched_funcs"
	MStaleFlatFallback     = "stale.ladder.flat_fallback_funcs"
	MStaleMatchedContexts  = "stale.ladder.matched_contexts"
	MStaleRecoveredProbes  = "stale.recovered_probes"
	MStaleMeanMatchQuality = "stale.mean_match_quality"

	// internal/opt — optimization pipeline.
	MOptInlineSample      = "opt.inline.sample_decisions"
	MOptInlineStatic      = "opt.inline.static_decisions"
	MOptICPromotions      = "opt.icp.promotions"
	MOptInferenceAdjusted = "opt.inference.adjusted"
	MOptCFGMerged         = "opt.simplify.merged"
	MOptCFGEmptyRemoved   = "opt.simplify.empty_removed"
	MOptTailMerges        = "opt.simplify.tail_merges"
	MOptTailMergeBlocked  = "opt.simplify.tail_merge_blocked"
	MOptIfConverts        = "opt.ifconvert.converted"
	MOptIfConvertBlocked  = "opt.ifconvert.blocked"
	MOptUnrolled          = "opt.unroll.loops"
	MOptLICMHoisted       = "opt.licm.hoisted"
	MOptDCERemoved        = "opt.dce.removed"
	MOptTailCalls         = "opt.tce.tail_calls"
	MOptSplitBlocks       = "opt.split.blocks"
	MOptLayoutFuncs       = "opt.layout.funcs"

	// internal/analysis/tv — translation validation (checked builds).
	MTVValidateNS      = "analysis.tv.validate_ns" // per-boundary validator cost
	MTVPassesValidated = "analysis.tv.passes_validated"
	MTVOracleRuns      = "analysis.tv.oracle_runs"
	MTVViolations      = "analysis.tv.violations"

	// internal/sim — simulated execution.
	MSimCycles        = "sim.cycles"
	MSimInstructions  = "sim.instructions"
	MSimTakenBranches = "sim.taken_branches"
	MSimMispredicts   = "sim.mispredicts"
	MSimICacheMisses  = "sim.icache_misses"
	MSimSamples       = "sim.samples"

	// internal/quality — profile diff analytics (old vs. new profile).
	MQualityContextOverlap = "quality.context_overlap"
	MQualityContextsGained = "quality.contexts_gained"
	MQualityContextsLost   = "quality.contexts_lost"
	MQualityFuncDivergence = "quality.func_divergence"

	// internal/introspect — the `csspgo serve` profile daemon. The serve.*
	// prefix is reserved: Registry refuses serve.* names that are not
	// declared here.
	MServeRequests        = "serve.requests"
	MServeRefreshes       = "serve.refreshes"
	MServeRefreshFailures = "serve.refresh_failures"
	MServeSwapLatencyNS   = "serve.swap_latency_ns"

	// internal/fleet — the fleet aggregation control plane. Like serve.*,
	// the fleet.* prefix is reserved: these metrics are the control plane's
	// public health surface, so ad-hoc names are refused.
	MFleetFetchAttempts        = "fleet.fetch.attempts"
	MFleetFetchRetries         = "fleet.fetch.retries"
	MFleetFetchFailures        = "fleet.fetch.failures"
	MFleetDecodeFailures       = "fleet.decode.failures"
	MFleetDecodeSkipped        = "fleet.decode.skipped_records"
	MFleetBreakerOpens         = "fleet.breaker.opens"
	MFleetBreakerHalfOpens     = "fleet.breaker.half_opens"
	MFleetBreakerCloses        = "fleet.breaker.closes"
	MFleetBreakerShortCircuits = "fleet.breaker.short_circuits"
	MFleetQuotaClamps          = "fleet.quota.clamps"
	MFleetStaleDrops           = "fleet.freshness.stale_drops"
	MFleetEpochReplays         = "fleet.freshness.epoch_replays"
	MFleetRounds               = "fleet.merge.rounds"
	MFleetMergeSources         = "fleet.merge.sources"
	MFleetMergeSamples         = "fleet.merge.samples"
	MFleetPromotions           = "fleet.gate.promotions"
	MFleetGateFailures         = "fleet.gate.failures"
	MFleetRollbacks            = "fleet.gate.rollbacks"
	MFleetRoundNS              = "fleet.round_ns"

	// internal/fleet — the structured event journal.
	MFleetEventsEmitted          = "fleet.events.emitted"
	MFleetEventsOverlapDegrading = "fleet.events.overlap_degrading"

	// internal/fleet — per-source profile-confidence aggregation.
	MFleetConfidenceLowSources = "fleet.confidence.low_sources"

	// internal/obs — the bounded time-series store's own footprint. The
	// obs.* prefix is reserved like serve.* and fleet.*: the observability
	// layer's self-metrics are part of its public surface.
	mObsTimeseriesSeries  = "obs.timeseries.series"
	mObsTimeseriesPoints  = "obs.timeseries.points"
	mObsTimeseriesEvicted = "obs.timeseries.evicted_points"

	// internal/overhead — the cost-and-confidence observatory. The
	// overhead.* prefix is reserved: the cost ledger feeds the /overhead
	// endpoints and dashboards, so ad-hoc names there are refused.
	MOverheadTotalCycles      = "overhead.total_cycles"
	MOverheadAppCycles        = "overhead.app_cycles"
	MOverheadCycles           = "overhead.overhead_cycles"
	MOverheadProbeCycles      = "overhead.probe_cycles"
	MOverheadSampleCycles     = "overhead.sample_cycles"
	MOverheadVProfCycles      = "overhead.value_profile_cycles"
	MOverheadSamples          = "overhead.samples"
	MOverheadProbeIncrements  = "overhead.probe_increments"
	MOverheadFramesWalked     = "overhead.frames_walked"
	MOverheadPct              = "overhead.overhead_pct"
	MOverheadBudgetBreaches   = "overhead.budget_breaches"
	MOverheadHotConfident     = "overhead.confidence.hot_confident"
	MOverheadHotUncertain     = "overhead.confidence.hot_uncertain"
	MOverheadColdInstrumented = "overhead.confidence.cold_instrumented"
)

// catalogNames lists every statically declared metric name. Dynamic names,
// e.g. per-workload experiment gauges, extend the namespace at run time
// outside the reserved prefixes.
func catalogNames() []string {
	return []string{
		MUnwindSamplesAccepted, MUnwindSamplesDropped, MUnwindRanges,
		MUnwindRangesTruncated, MUnwindSkidAdjusted, MUnwindMissingFrames,
		MUnwindEventsRecovered, MUnwindFramesRecovered,
		MShardWorkerBusyNS, MShardTailGraphBuildNS,
		MStreamChunks, MStreamContexts, MStreamDistinctSamples,
		MProfileGenSamples, MProfileGenFuncProfiles, MProfileGenContexts,
		MAnnotateFuncs, MAnnotateStale, MAnnotateNoProfile,
		MStaleMatchAttempts, MStaleMatchAccepted, MStaleMatchRejected,
		MStaleMatchedFuncs, MStaleFlatFallback, MStaleMatchedContexts,
		MStaleRecoveredProbes, MStaleMeanMatchQuality,
		MOptInlineSample, MOptInlineStatic, MOptICPromotions,
		MOptInferenceAdjusted, MOptCFGMerged, MOptCFGEmptyRemoved,
		MOptTailMerges, MOptTailMergeBlocked, MOptIfConverts,
		MOptIfConvertBlocked, MOptUnrolled, MOptLICMHoisted,
		MOptDCERemoved, MOptTailCalls, MOptSplitBlocks, MOptLayoutFuncs,
		MTVValidateNS, MTVPassesValidated, MTVOracleRuns, MTVViolations,
		MSimCycles, MSimInstructions, MSimTakenBranches,
		MSimMispredicts, MSimICacheMisses, MSimSamples,
		MQualityContextOverlap, MQualityContextsGained, MQualityContextsLost,
		MQualityFuncDivergence,
		MServeRequests, MServeRefreshes, MServeRefreshFailures,
		MServeSwapLatencyNS,
		MFleetFetchAttempts, MFleetFetchRetries, MFleetFetchFailures,
		MFleetDecodeFailures, MFleetDecodeSkipped,
		MFleetBreakerOpens, MFleetBreakerHalfOpens, MFleetBreakerCloses,
		MFleetBreakerShortCircuits,
		MFleetQuotaClamps, MFleetStaleDrops, MFleetEpochReplays,
		MFleetRounds, MFleetMergeSources, MFleetMergeSamples,
		MFleetPromotions, MFleetGateFailures, MFleetRollbacks,
		MFleetRoundNS,
		MFleetEventsEmitted, MFleetEventsOverlapDegrading,
		MFleetConfidenceLowSources,
		mObsTimeseriesSeries, mObsTimeseriesPoints, mObsTimeseriesEvicted,
		MOverheadTotalCycles, MOverheadAppCycles, MOverheadCycles,
		MOverheadProbeCycles, MOverheadSampleCycles, MOverheadVProfCycles,
		MOverheadSamples, MOverheadProbeIncrements, MOverheadFramesWalked,
		MOverheadPct, MOverheadBudgetBreaches,
		MOverheadHotConfident, MOverheadHotUncertain, MOverheadColdInstrumented,
	}
}

// metricCatalog is catalogNames as a set: the names Registry accepts with
// no further check.
var metricCatalog = func() map[string]bool {
	set := map[string]bool{}
	for _, n := range catalogNames() {
		set[n] = true
	}
	return set
}()

// reservedPrefixes are the namespaces whose every metric must be
// cataloged. The serving daemon's, the fleet control plane's, the
// observability layer's and the overhead observatory's metrics are part of
// their public contracts (`/metrics`, run manifests, the /overhead
// surface), so ad-hoc serve.* / fleet.* / obs.* / overhead.* names are
// refused rather than taken as dynamic extensions.
var reservedPrefixes = []string{"serve.", "fleet.", "obs.", "overhead."}

// metricNameRE is the canonical metric-name shape: dotted lowercase path
// with at least two segments.
var metricNameRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)

// validMetricName reports whether name follows the namespace conventions.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// checkMetric is the name and kind check every artifact that carries
// metrics (run reports, time-series stores) applies to each one.
func checkMetric(name string, kind Kind) error {
	if !validMetricName(name) {
		return fmt.Errorf("malformed metric name %q (want a dotted lowercase path)", name)
	}
	switch kind {
	case kindCounter, kindGauge, kindHistogram:
		return nil
	}
	return fmt.Errorf("metric %q: unknown kind %q", name, kind)
}

// isTimingMetric reports whether name records wall-clock time (the "_ns"
// suffix convention); timing metrics are zeroed by Normalize because they
// are the only nondeterministic part of a run report or time series.
func isTimingMetric(name string) bool { return strings.HasSuffix(name, "_ns") }
