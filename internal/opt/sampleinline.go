package opt

import (
	"csspgo/internal/ir"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/stale"
)

// sampleInlinePass rewrites caller CFGs from context profiles.
var sampleInlinePass = registerPass("sample-inline", flowPerturbs, semRestructures)

// sampleInlineCS is the CSSPGO top-down sample-loader inliner. Functions
// are visited callers-first. While compiling F, the profile's contexts
// rooted at F ("F:site @ callee …") drive inlining: a retained context
// (pre-inliner ShouldInline decision, or hot context when compiling without
// the pre-inliner) is inlined and its body annotated directly from the
// context profile. After F is finished, leftover contexts rooted at F are
// *promoted*: their leading frame is dropped, so "F:2 @ g" merges into g's
// base profile (re-annotating g) and "F:2 @ g:5 @ h" becomes "g:5 @ h",
// available when g is compiled — LLVM's context promotion, and the
// compile-time half of Algorithm 2's profile bookkeeping.
//
// Returns the number of call sites inlined; stale-context rejections are
// counted into st (which may be nil). A non-nil matcher lets stale contexts
// degrade via anchor matching instead of merging straight into the base.
func sampleInlineCS(p *ir.Program, calls *ir.CallGraphScratch, prof *profdata.Profile, m *stale.Matcher, st *Stats) int {
	if !prof.CS || len(prof.Contexts) == 0 {
		return 0
	}
	cg := ir.BuildCallGraphIn(p, calls)
	inlines := 0

	for _, name := range cg.TopDownOrder() {
		if f := p.Funcs[name]; f != nil && f.HasProfile {
			// Fixed point: inlining exposes deeper call sites whose probes
			// carry extended inline chains, matching deeper contexts.
			inlines += rewriteSites(f, 8, func(b *ir.Block, i int) bool {
				in := &b.Instrs[i]
				callee := inlinableCallee(p, cg, f, in)
				if callee == nil || in.Probe == nil {
					return false
				}
				key := contextKeyForCall(in, in.Sym())
				cp := prof.Contexts[key]
				if cp == nil {
					return false
				}
				// Stale defense: a context profile whose CFG checksum no
				// longer matches the callee must not annotate an inlined
				// body (source drift changed the callee's shape). The
				// anchor matcher may remap it into the callee's new ID
				// space; otherwise it falls through to the base-merge
				// sweep, where annotation re-checks.
				if cp.Checksum != 0 && callee.Checksum != 0 && cp.Checksum != callee.Checksum {
					var remapped *profdata.FunctionProfile
					if m != nil {
						if res := m.Match(callee, cp); res.OK {
							remapped = res.Profile
						}
					}
					if remapped == nil {
						if st != nil {
							st.StaleFuncs++
						}
						prof.MergeContextIntoBase(key)
						return false
					}
					if st != nil {
						st.MatchedContexts++
					}
					cp = remapped
				}
				if inlineCall(p, f, b, i, cp) != nil {
					return false
				}
				delete(prof.Contexts, key)
				return true
			})
		}
		// Promote what F did not inline (see above).
		reannotate := map[string]bool{}
		for _, key := range prof.RootedAt(name) {
			if base := prof.Promote(key); base != "" {
				reannotate[base] = true
			}
		}
		annotateFromBases(p, prof, reannotate, m)
	}

	// Safety net: any context that survived both consumption and promotion
	// (vanished call sites, cross-SCC chains, roots outside the static call
	// graph) folds into its leaf's base profile so no samples are lost.
	// Function-level match counters stay with Annotate — this sweep
	// revisits functions it already classified — but a stale base the
	// ladder drops counts as a stale function.
	reannotate := map[string]bool{}
	for _, key := range prof.SortedContextKeys() {
		reannotate[prof.Contexts[key].Name] = true
		prof.MergeContextIntoBase(key)
	}
	if dropped := annotateFromBases(p, prof, reannotate, m); st != nil {
		st.StaleFuncs += dropped
	}
	return inlines
}

// annotateFromBases re-annotates the named functions from their base
// profiles after context counts merged into them, and returns how many
// stale ones the degradation ladder dropped.
func annotateFromBases(p *ir.Program, prof *profdata.Profile, names map[string]bool, m *stale.Matcher) int {
	var st AnnotateStats
	for name := range names {
		if f, fp := p.Funcs[name], prof.Funcs[name]; f != nil && fp != nil {
			annotateFromBase(f, fp, m, &st)
		}
	}
	return st.Dropped
}

// contextKeyForCall renders the profile context key of a call instruction
// rooted at the enclosing physical function: the call probe's inline chain
// (outermost first), the probe's own site, and the callee as leaf.
func contextKeyForCall(call *ir.Instr, callee string) string {
	ctx := probe.AppendInlineContext(nil, call.Probe.InlinedAt)
	ctx = append(ctx,
		profdata.ContextFrame{Func: call.Probe.Func, Site: profdata.LocKey{ID: call.Probe.ID}},
		profdata.ContextFrame{Func: callee})
	return ctx.Key()
}

// sampleInlineAutoFDO is AutoFDO's early top-down inliner: with only
// context-insensitive line profiles available, it inlines call sites whose
// block weight is hot relative to the caller, conservatively (the paper
// notes early inlining on unoptimized IR must be conservative because cost
// estimates are poor). The inlined body is annotated by scaling the
// callee's base profile — the context-insensitive approximation.
func sampleInlineAutoFDO(p *ir.Program, calls *ir.CallGraphScratch, params inlineParams) int {
	cg := ir.BuildCallGraphIn(p, calls)
	inlines := 0
	for _, name := range cg.TopDownOrder() {
		f := p.Funcs[name]
		if f == nil || !f.HasProfile || f.EntryCount == 0 {
			continue
		}
		inlines += rewriteSites(f, 4, func(b *ir.Block, i int) bool {
			if !b.HasWeight || b.Weight == 0 || b.Weight*1000 < f.EntryCount*uint64(params.HotCallsiteFraction) {
				return false // not a hot site
			}
			callee := inlinableCallee(p, cg, f, &b.Instrs[i])
			if callee == nil || !callee.HasProfile || callee.EntryCount == 0 {
				return false
			}
			// Conservative: early IR cost estimate, modest cap.
			if realSize(callee) > params.SizeThreshold {
				return false
			}
			// ThinLTO: cross-module bodies only via summary import (judged
			// on the pre-optimization summary size).
			if callee.Module != f.Module && summarySize(callee) > params.ImportThreshold {
				return false
			}
			return inlineCall(p, f, b, i, nil) == nil
		})
	}
	return inlines
}
