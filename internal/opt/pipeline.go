package opt

import (
	"csspgo/internal/inference"
	"csspgo/internal/ir"
	"csspgo/internal/profdata"
	"csspgo/internal/stale"
)

// Passes with entry points outside this package (or with none at all)
// register here; passes defined in this package register next to their
// entry point.
var (
	inferencePass   = registerPass("inference", flowRestores, semStructural)
	unreachablePass = registerPass("remove-unreachable", flowPreserves, semStructural)
)

// runner sequences registered passes over one program, optionally checking
// every pass boundary (Config.VerifyEach).
type runner struct {
	p     *ir.Program
	cfg   *Config
	check *checker
}

// run executes one pass under its registered identity, opening an
// "opt.<pass>" span on the configured trace (so per-pass timings are
// recorded whether or not checked mode is on). In checked mode the
// structural verifier and the analysis suite run afterwards, and the first
// error-severity finding aborts the pipeline with a *PassViolation naming
// this pass.
func (r *runner) run(id passID, fn func()) error {
	sp := r.cfg.Trace.Span("opt." + id.name)
	defer sp.End()
	fn()
	if r.cfg.InjectAfter != nil {
		if corrupt := r.cfg.InjectAfter[id.name]; corrupt != nil {
			corrupt(r.p)
		}
	}
	if r.check != nil {
		return r.check.after(id)
	}
	return nil
}

// Optimize runs the full pipeline over the program, mirroring the paper's
// Fig. 1 flow: profile annotation + inference, profile-guided top-down
// inlining (sample loader / early inliner), the scalar and control-flow
// pipeline (simplifyCFG, DCE, LICM, unroll, if-convert, tail merge), the
// main bottom-up inliner, tail-call elimination, then the profile-consuming
// backend passes (layout, splitting) after a final inference pass restores
// flow consistency. The profile-consuming passes run iff cfg.Profile is
// set. With cfg.VerifyEach, every pass boundary is verified
// and the first violation aborts with a *PassViolation attributing it.
func Optimize(p *ir.Program, cfg *Config) (*Stats, error) {
	st := &Stats{}
	// Record ThinLTO summary sizes on pristine bodies (importability is
	// decided on summaries, not on transformed IR).
	for _, f := range p.Functions() {
		if f.SummarySize == 0 {
			f.SummarySize = realSize(f)
		}
	}
	r := &runner{p: p, cfg: cfg}
	if cfg.VerifyEach || cfg.ValidateSemantics {
		r.check = newChecker(p, cfg)
	}
	prof := cfg.Profile
	var matcher *stale.Matcher
	if cfg.StaleMatching {
		matcher = stale.NewMatcher()
	}
	if prof != nil {
		prof = prof.Clone() // the pipeline consumes/mutates the profile
		if prof.CS {
			prepareCSProfile(prof, cfg.UsePreInlineDecisions, cfg.CSHotContextThreshold)
		}
		if err := r.run(annotatePass, func() {
			a := annotateWithMatcher(p, prof, matcher)
			a.Publish(cfg.Metrics)
			st.AnnotatedFuncs = a.Annotated
			st.StaleFuncs = a.Stale
			st.MatchedFuncs = a.Matched
			st.FlatFallbackFuncs = a.FlatFallback
			st.RecoveredProbes = a.RecoveredProbes
			if a.Matched > 0 {
				st.MatchQuality = a.QualitySum / float64(a.Matched)
			}
		}); err != nil {
			return st, err
		}
		if !cfg.DisableInference {
			if err := r.run(inferencePass, func() {
				st.InferenceAdjust = inference.InferProgram(p)
			}); err != nil {
				return st, err
			}
		}
		// icp needs the flat target histograms before the CS inliner
		// consumes the context table.
		var flatView *profdata.Profile
		if !cfg.DisableICP {
			flatView = prof.Flat()
		}
		// Top-down profile-guided inlining.
		if err := r.run(sampleInlinePass, func() {
			if prof.CS {
				st.SampleInlines = sampleInlineCS(p, prof, matcher, st)
			} else {
				st.SampleInlines = sampleInlineAutoFDO(p, defaultInlineParams())
			}
		}); err != nil {
			return st, err
		}
		// Indirect-call promotion runs after the sample inliner (so the
		// hot wrappers are already merged into their callers and promotion
		// does not inflate them out of inlining range) and before the
		// bottom-up inliner (so promoted direct calls can inline).
		if !cfg.DisableICP {
			if err := r.run(icpPass, func() {
				st.ICPromotions = icpProgram(p, flatView)
			}); err != nil {
				return st, err
			}
		}
	}

	// Early cleanup.
	if err := r.run(simplifyPass, func() {
		for _, f := range p.Functions() {
			sr := simplifyCFG(f, false, cfg.Barrier)
			st.CFGMerged += sr.Merged
			st.CFGEmptyRemoved += sr.EmptyRemoved
			st.TailMerges += sr.TailMerges
			st.TailMergeBlocked += sr.TailMergeBlocked
		}
	}); err != nil {
		return st, err
	}
	if err := r.run(dcePass, func() {
		for _, f := range p.Functions() {
			st.DCERemoved += dce(f)
		}
	}); err != nil {
		return st, err
	}

	// Main bottom-up inliner.
	inl := defaultInlineParams()
	if cfg.UsePreInlineDecisions {
		// The pre-inliner already claimed the hot paths; the static pass
		// only picks up cheap wins.
		inl.HotThreshold = inl.SizeThreshold
	}
	if err := r.run(inlinePass, func() {
		st.StaticInlines = bottomUpInline(p, inl, prof != nil)
	}); err != nil {
		return st, err
	}

	// Scalar/control-flow pipeline.
	if err := r.run(licmPass, func() {
		for _, f := range p.Functions() {
			st.LICMHoisted += licm(f)
		}
	}); err != nil {
		return st, err
	}
	// Profiled builds unroll hot loops by 4; training builds unroll tiny
	// loops by 2, like -O2.
	if err := r.run(unrollPass, func() {
		for _, f := range p.Functions() {
			params := unrollParams{Factor: 2, MaxBodyInstrs: 10}
			if prof != nil {
				params = unrollParams{Factor: 4, HotWeight: hotLoopThreshold(f), MaxBodyInstrs: 24}
			}
			st.Unrolled += unroll(f, params)
		}
	}); err != nil {
		return st, err
	}
	if err := r.run(ifConvertPass, func() {
		for _, f := range p.Functions() {
			ic := ifConvert(f, cfg.Barrier, 3)
			st.IfConverts += ic.Converted
			st.IfConvertBlocked += ic.Blocked
		}
	}); err != nil {
		return st, err
	}
	if err := r.run(simplifyPass, func() {
		for _, f := range p.Functions() {
			sr := simplifyCFG(f, true, cfg.Barrier)
			st.CFGMerged += sr.Merged
			st.CFGEmptyRemoved += sr.EmptyRemoved
			st.TailMerges += sr.TailMerges
			st.TailMergeBlocked += sr.TailMergeBlocked
		}
	}); err != nil {
		return st, err
	}
	if err := r.run(dcePass, func() {
		for _, f := range p.Functions() {
			st.DCERemoved += dce(f)
		}
	}); err != nil {
		return st, err
	}
	if err := r.run(tcePass, func() {
		for _, f := range p.Functions() {
			st.TailCalls += tce(f)
		}
	}); err != nil {
		return st, err
	}

	if prof != nil {
		if !cfg.DisableInference {
			if err := r.run(inferencePass, func() {
				inference.InferProgram(p)
			}); err != nil {
				return st, err
			}
		}
		if err := r.run(layoutPass, func() {
			st.LayoutFuncs = layoutProgram(p)
		}); err != nil {
			return st, err
		}
		if err := r.run(splitPass, func() {
			st.SplitBlocks = splitProgram(p)
		}); err != nil {
			return st, err
		}
	}

	if err := r.run(unreachablePass, func() {
		for _, f := range p.Functions() {
			f.RemoveUnreachable()
		}
	}); err != nil {
		return st, err
	}
	if err := r.run(deadFuncPass, func() {
		dropDeadFunctions(p)
	}); err != nil {
		return st, err
	}
	if err := p.Verify(); err != nil {
		return st, err
	}
	st.Publish(cfg.Metrics)
	if matcher != nil {
		publishMatcherStats(cfg.Metrics, matcher.Stats)
	}
	return st, nil
}

// hotLoopThreshold derives a per-function hotness bar for unrolling: a
// multiple of the entry count, so only loops iterating many times per call
// qualify.
func hotLoopThreshold(f *ir.Function) uint64 {
	if !f.HasProfile || f.EntryCount == 0 {
		return 1
	}
	return f.EntryCount * 2
}
