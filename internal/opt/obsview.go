package opt

import (
	"csspgo/internal/obs"
	"csspgo/internal/stale"
)

// This file is the bridge between the pipeline's Stats structs and the
// unified metric registry: the structs remain the Go API, and Publish
// projects them into the obs namespace as thin views. Every name is a
// catalog constant, so obs.Registry accepts each with one set lookup.

// Publish records the pipeline stats into the unified registry (nil-safe).
func (st *Stats) Publish(reg *obs.Registry) {
	if reg == nil || st == nil {
		return
	}
	reg.Counter(obs.MOptInlineSample).Add(int64(st.SampleInlines))
	reg.Counter(obs.MOptInlineStatic).Add(int64(st.StaticInlines))
	reg.Counter(obs.MOptICPromotions).Add(int64(st.ICPromotions))
	reg.Counter(obs.MOptInferenceAdjusted).Add(int64(st.InferenceAdjust))
	reg.Counter(obs.MOptCFGMerged).Add(int64(st.CFGMerged))
	reg.Counter(obs.MOptCFGEmptyRemoved).Add(int64(st.CFGEmptyRemoved))
	reg.Counter(obs.MOptTailMerges).Add(int64(st.TailMerges))
	reg.Counter(obs.MOptTailMergeBlocked).Add(int64(st.TailMergeBlocked))
	reg.Counter(obs.MOptIfConverts).Add(int64(st.IfConverts))
	reg.Counter(obs.MOptIfConvertBlocked).Add(int64(st.IfConvertBlocked))
	reg.Counter(obs.MOptUnrolled).Add(int64(st.Unrolled))
	reg.Counter(obs.MOptLICMHoisted).Add(int64(st.LICMHoisted))
	reg.Counter(obs.MOptDCERemoved).Add(int64(st.DCERemoved))
	reg.Counter(obs.MOptTailCalls).Add(int64(st.TailCalls))
	reg.Counter(obs.MOptSplitBlocks).Add(int64(st.SplitBlocks))
	reg.Counter(obs.MOptLayoutFuncs).Add(int64(st.LayoutFuncs))
	// Degradation-ladder outcomes (zero on non-StaleMatching builds).
	reg.Counter(obs.MStaleMatchedFuncs).Add(int64(st.MatchedFuncs))
	reg.Counter(obs.MStaleFlatFallback).Add(int64(st.FlatFallbackFuncs))
	reg.Counter(obs.MStaleMatchedContexts).Add(int64(st.MatchedContexts))
	reg.Counter(obs.MStaleRecoveredProbes).Add(int64(st.RecoveredProbes))
	reg.Gauge(obs.MStaleMeanMatchQuality).Set(st.MatchQuality)
}

// Publish records annotation outcomes into the unified registry (nil-safe).
func (a AnnotateStats) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(obs.MAnnotateFuncs).Add(int64(a.Annotated))
	reg.Counter(obs.MAnnotateStale).Add(int64(a.Stale))
	reg.Counter(obs.MAnnotateNoProfile).Add(int64(a.NoProfile))
}

// publishMatcherStats records the stale matcher's lifetime counters into
// the unified registry (nil-safe). The degradation-ladder outcomes (which
// rung each stale function landed on) are published by Stats; these count
// the raw alignment attempts underneath them.
func publishMatcherStats(reg *obs.Registry, s stale.MatcherStats) {
	if reg == nil {
		return
	}
	reg.Counter(obs.MStaleMatchAttempts).Add(int64(s.Attempts))
	reg.Counter(obs.MStaleMatchAccepted).Add(int64(s.Accepted))
	reg.Counter(obs.MStaleMatchRejected).Add(int64(s.Rejected))
}
