// Package opt implements the optimization pipeline: profile annotation,
// profile-guided and static inlining, simplifyCFG with tail merging, LICM,
// loop unrolling, if-conversion, dead-code elimination, tail-call
// elimination, Ext-TSP-style block layout and hot/cold function splitting —
// each maintaining profile data the way the paper's Fig. 1 "profile
// maintenance" component requires, and each interacting with pseudo-probes
// per the configured barrier strength.
package opt

import (
	"csspgo/internal/ir"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// BarrierStrength says how strongly probes block control-flow-merging
// optimizations (the paper's tunable overhead/accuracy knob, §III.A).
type BarrierStrength uint8

const (
	// BarrierNone: no probes present, or probes ignored entirely.
	BarrierNone BarrierStrength = iota
	// BarrierWeak: the production pseudo-instrumentation tuning — tail
	// merge is blocked (probe signatures differ per block) but if-convert
	// and similar critical optimizations were fine-tuned to proceed,
	// trading a sliver of profile accuracy for near-zero overhead.
	BarrierWeak
	// BarrierStrong: traditional instrumentation semantics — counters
	// block both code merge and if-conversion.
	BarrierStrong
)

// inlineParams tunes the inliners.
type inlineParams struct {
	// SizeThreshold admits callees up to this many real (non-probe)
	// instructions for static inlining.
	SizeThreshold int
	// HotThreshold admits callees at hot call sites up to this size.
	HotThreshold int
	// TinyThreshold always inlines callees at or below this size, even at
	// cold call sites.
	TinyThreshold int
	// HotCallsiteFraction: a call site is hot when its block weight is at
	// least this fraction (x1000) of the function's entry weight.
	HotCallsiteFraction int
	// GrowthCap stops inlining into a caller once it exceeds this many
	// instructions.
	GrowthCap int
	// ImportThreshold bounds cross-module (ThinLTO summary import)
	// inlining: callees larger than this cannot be imported unless a
	// pre-inliner decision forces them.
	ImportThreshold int
}

// defaultInlineParams returns -O2-flavoured inlining thresholds.
func defaultInlineParams() inlineParams {
	return inlineParams{
		SizeThreshold:       18,
		HotThreshold:        60,
		TinyThreshold:       6,
		HotCallsiteFraction: 500,
		GrowthCap:           700,
		ImportThreshold:     30,
	}
}

// Config drives one compilation's optimization pipeline. It holds only what
// a caller decides; the zero Config is the production -O2 pipeline, and
// Optimize derives the rest from the profile: with one, annotation,
// inference (twice), sample inlining, ICP, hot-loop unrolling by 4, layout
// and splitting run; without one, tiny loops unroll by 2. The bottom-up
// inliner and TCE always run.
type Config struct {
	// Profile is the input PGO profile (nil for a training build).
	Profile *profdata.Profile
	// UsePreInlineDecisions honors ShouldInline decisions persisted in a
	// context-sensitive profile by the offline pre-inliner, and damps the
	// bottom-up inliner's hot-site boost: the pre-inliner already made the
	// global hot-path decisions, so extra static inlining only grows code.
	UsePreInlineDecisions bool
	// Barrier is the probe barrier strength in effect.
	Barrier BarrierStrength
	// DisableInference turns off MCF profile inference (profi) after
	// annotation and before layout (ablations).
	DisableInference bool
	// DisableICP turns off indirect-call promotion (ablations).
	DisableICP bool
	// CSHotContextThreshold: when using a CS profile without pre-inliner
	// decisions, contexts at least this hot are inlined by the top-down
	// sample inliner.
	CSHotContextThreshold uint64
	// StaleMatching enables the anchor-based stale-profile matcher: on a
	// CFG-checksum mismatch the function profile degrades down the ladder
	// (anchor-matched, then flat fallback) instead of being dropped.
	StaleMatching bool
	// VerifyEach enables checked pipeline mode (LLVM -verify-each style):
	// after every pass, Function.Verify and the analysis suite run over the
	// whole program, and the first error-severity finding aborts Optimize
	// with a *PassViolation naming the offending pass and function, with a
	// before/after IR diff of that function.
	VerifyEach bool
	// ValidateSemantics enables the translation-validation tier on top of
	// VerifyEach: after every pass, the internal/analysis/tv validator
	// proves the before/after IR semantically equivalent under the pass's
	// registered contract (effect-summary checks, CFG bisimulation for
	// structure-preserving passes, and a differential-execution oracle on
	// seeded corpus inputs). Violations abort with a *PassViolation exactly
	// like VerifyEach findings. Implies checked mode.
	ValidateSemantics bool
	// Trace receives one child span per executed pass ("opt.<pass>"), in
	// checked and unchecked mode alike (nil = no tracing), plus a
	// "tv.<pass>" child per validated boundary when ValidateSemantics is on.
	Trace *obs.Span
	// Metrics is the unified metric registry the pipeline's Stats publish
	// into at the end of Optimize (nil = no publication).
	Metrics *obs.Registry

	// InjectAfter runs a deliberate program mutation right after the named
	// pass runs and before its checks fire — the miscompile-injection
	// harness (tv.Apply) and checked-mode tests use it to prove detection
	// and attribution land on that pass. Nil in production builds.
	InjectAfter map[string]func(*ir.Program)
}

// Stats reports what the pipeline did.
type Stats struct {
	AnnotatedFuncs int
	StaleFuncs     int
	// Degradation-ladder outcomes (StaleMatching builds).
	MatchedFuncs      int     // stale base profiles recovered by the anchor matcher
	FlatFallbackFuncs int     // stale base profiles degraded to the flat fallback
	MatchedContexts   int     // stale context profiles remapped for CS inlining
	RecoveredProbes   int     // old probe IDs whose counts the matcher transferred
	MatchQuality      float64 // mean match quality over MatchedFuncs
	InferenceAdjust   int
	SampleInlines     int
	StaticInlines     int
	CFGMerged         int
	CFGEmptyRemoved   int
	TailMerges        int
	TailMergeBlocked  int // tail merges a probe barrier shortened or prevented, one per pair
	IfConverts        int
	IfConvertBlocked  int // diamonds the instrumentation barrier left standing, one each
	Unrolled          int
	LICMHoisted       int
	DCERemoved        int
	TailCalls         int
	SplitBlocks       int
	LayoutFuncs       int
	ICPromotions      int
}
