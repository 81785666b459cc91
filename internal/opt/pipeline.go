package opt

import (
	"csspgo/internal/inference"
	"csspgo/internal/ir"
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
	err   error // the first pass violation; no pass runs after it
}

// run executes one pass under its registered identity, opening an
// "opt.<pass>" span on the configured trace (so per-pass timings are
// recorded whether or not checked mode is on). In checked mode the
// structural verifier and the analysis suite run afterwards, and the first
// error-severity finding is kept in r.err as a *PassViolation naming this
// pass; from then on run does nothing.
func (r *runner) run(id passID, fn func()) {
	if r.err != nil {
		return
	}
	sp := r.cfg.Trace.Span("opt." + id.name)
	defer sp.End()
	fn()
	if corrupt := r.cfg.InjectAfter[id.name]; corrupt != nil {
		corrupt(r.p)
	}
	if r.check != nil {
		r.err = r.check.after(id)
	}
}

// each runs fn over every function, in program order, as one pass.
func (r *runner) each(id passID, fn func(f *ir.Function)) {
	r.run(id, func() {
		for _, f := range r.p.Functions() {
			fn(f)
		}
	})
}

// Optimize runs the full pipeline over the program, mirroring the paper's
// Fig. 1 flow: profile annotation + inference, profile-guided top-down
// inlining (sample loader / early inliner), simplifyCFG and DCE, the main
// bottom-up inliner (dropping the functions it leaves dead), LICM, unroll,
// if-convert, tail merge, tail-call elimination, then the profile-consuming
// backend passes (layout, splitting) after a final inference pass restores
// flow consistency. The profile-consuming passes run iff cfg.Profile is
// set. With cfg.VerifyEach, every pass boundary is verified
// and the first violation aborts with a *PassViolation attributing it.
func Optimize(p *ir.Program, cfg *Config) (*Stats, error) { return optimize(p, cfg, new(workspace)) }

// optimize is Optimize with the passes' tables in ws, which every pass and
// function of the build shares.
func optimize(p *ir.Program, cfg *Config, ws *workspace) (*Stats, error) {
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
		r.run(annotatePass, func() {
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
		})
		if !cfg.DisableInference {
			r.run(inferencePass, func() {
				st.InferenceAdjust = inference.InferProgramIn(p, &ws.infer)
			})
		}
		// icp needs the flat target histograms before the CS inliner
		// consumes the context table.
		var icalls callHistograms
		if !cfg.DisableICP {
			icalls = flatCallHistograms(prof)
		}
		// Top-down profile-guided inlining.
		r.run(sampleInlinePass, func() {
			if prof.CS {
				st.SampleInlines = sampleInlineCS(p, &ws.calls, prof, matcher, st)
			} else {
				st.SampleInlines = sampleInlineAutoFDO(p, &ws.calls, defaultInlineParams())
			}
		})
		// Indirect-call promotion runs after the sample inliner (so the
		// hot wrappers are already merged into their callers and promotion
		// does not inflate them out of inlining range) and before the
		// bottom-up inliner (so promoted direct calls can inline).
		if !cfg.DisableICP {
			r.run(icpPass, func() {
				st.ICPromotions = icpProgram(p, icalls, prof.Kind)
			})
		}
	}

	simplify := func(tailMerge bool) func(*ir.Function) {
		return func(f *ir.Function) {
			sr := ws.simplifyCFG(f, tailMerge, cfg.Barrier)
			st.CFGMerged += sr.Merged
			st.CFGEmptyRemoved += sr.EmptyRemoved
			st.TailMerges += sr.TailMerges
			st.TailMergeBlocked += sr.TailMergeBlocked
		}
	}
	dceEach := func(f *ir.Function) { st.DCERemoved += ws.dce(f) }

	// Early cleanup.
	r.each(simplifyPass, simplify(false))
	r.each(dcePass, dceEach)

	// Main bottom-up inliner.
	inl := defaultInlineParams()
	if cfg.UsePreInlineDecisions {
		// The pre-inliner already claimed the hot paths; the static pass
		// only picks up cheap wins.
		inl.HotThreshold = inl.SizeThreshold
	}
	r.run(inlinePass, func() {
		st.StaticInlines = bottomUpInline(p, &ws.calls, inl, prof != nil)
	})
	// No later pass adds a call, so no later pass need see a dead function.
	r.run(deadFuncPass, func() { dropDeadFunctions(p) })

	// Scalar/control-flow pipeline.
	r.each(licmPass, func(f *ir.Function) { st.LICMHoisted += ws.licm(f) })
	// Profiled builds unroll hot loops by 4; training builds unroll tiny
	// loops by 2, like -O2.
	r.each(unrollPass, func(f *ir.Function) {
		params := unrollParams{Factor: 2, MaxBodyInstrs: 10}
		if prof != nil {
			params = unrollParams{Factor: 4, HotWeight: hotLoopThreshold(f), MaxBodyInstrs: 24}
		}
		st.Unrolled += ws.unroll(f, params)
	})
	r.each(ifConvertPass, func(f *ir.Function) {
		converted, blocked := ws.ifConvert(f, cfg.Barrier, 3)
		st.IfConverts += converted
		st.IfConvertBlocked += blocked
	})
	r.each(simplifyPass, simplify(true))
	r.each(dcePass, dceEach)
	r.each(tcePass, func(f *ir.Function) { st.TailCalls += tce(f) })

	if prof != nil {
		if !cfg.DisableInference {
			r.run(inferencePass, func() { inference.InferProgramIn(p, &ws.infer) })
		}
		r.run(layoutPass, func() { st.LayoutFuncs = ws.layoutProgram(p) })
		r.run(splitPass, func() { st.SplitBlocks = splitProgram(p) })
	}

	r.each(unreachablePass, func(f *ir.Function) { f.RemoveUnreachable() })
	if r.err != nil {
		return st, r.err
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
