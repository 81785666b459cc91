package opt

import (
	"csspgo/internal/ir"
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
func sampleInlineCS(p *ir.Program, prof *profdata.Profile, m *stale.Matcher, st *Stats) int {
	if !prof.CS || len(prof.Contexts) == 0 {
		return 0
	}
	cg := ir.BuildCallGraph(p)
	inlines := 0

	for _, name := range cg.TopDownOrder() {
		f := p.Funcs[name]
		if f != nil && f.HasProfile {
			// Fixed point: inlining exposes deeper call sites whose probes
			// carry extended inline chains, matching deeper contexts.
			for pass := 0; pass < 8; pass++ {
				changed := false
				for _, b := range f.Blocks {
					for i := 0; i < len(b.Instrs); i++ {
						in := &b.Instrs[i]
						if in.Op != ir.OpCall || in.Probe == nil || in.TailCall {
							continue
						}
						callee := p.Funcs[in.Callee]
						if callee == nil || callee == f || cg.InSameSCC(f.Name, in.Callee) {
							continue
						}
						key := contextKeyForCall(in, in.Callee)
						cp := prof.Contexts[key]
						if cp == nil {
							continue
						}
						// Stale defense: a context profile whose CFG
						// checksum no longer matches the callee must not
						// annotate an inlined body (source drift changed
						// the callee's shape). The anchor matcher may remap
						// it into the callee's new ID space; otherwise it
						// falls through to the base-merge sweep, where
						// annotation re-checks.
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
								continue
							}
							if st != nil {
								st.MatchedContexts++
							}
							cp = remapped
						}
						if err := inlineCall(p, f, b, i, cp); err != nil {
							continue
						}
						delete(prof.Contexts, key)
						inlines++
						changed = true
						break
					}
					if changed {
						break
					}
				}
				if !changed {
					break
				}
			}
		}
		promoteContextsRootedAt(p, prof, name, m)
	}

	// Safety net: any context that survived both consumption and promotion
	// (vanished call sites, cross-SCC chains, roots outside the static call
	// graph) folds into its leaf's base profile so no samples are lost.
	reannotate := map[string]bool{}
	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		reannotate[cp.Name] = true
		prof.MergeContextIntoBase(key)
	}
	for name := range reannotate {
		f, fp := p.Funcs[name], prof.Funcs[name]
		if f == nil || fp == nil {
			continue
		}
		if fp.Checksum != 0 && f.Checksum != 0 && fp.Checksum != f.Checksum {
			// The merged base is stale: walk the ladder rather than leaving
			// whatever annotation the function had. Function-level match
			// counters stay with Annotate — this sweep revisits functions it
			// already classified.
			var ast AnnotateStats
			if !degradeStale(f, fp, m, &ast) && st != nil {
				st.StaleFuncs++
			}
			continue
		}
		annotateProbe(f, fp)
		f.EntryCount = fp.HeadSamples
		f.HasProfile = true
	}
	return inlines
}

// promoteContextsRootedAt drops the leading frame from every remaining
// context rooted at fname: the call was not inlined, so the callee runs
// standalone and its context counts belong one level down. Depth-1 results
// merge into base profiles, whose functions are immediately re-annotated.
func promoteContextsRootedAt(p *ir.Program, prof *profdata.Profile, fname string, m *stale.Matcher) {
	reannotate := map[string]bool{}
	for _, key := range prof.SortedContextKeys() {
		cp, ok := prof.Contexts[key]
		if !ok || len(cp.Context) < 2 || cp.Context[0].Func != fname {
			continue
		}
		newCtx := append(profdata.Context(nil), cp.Context[1:]...)
		delete(prof.Contexts, key)
		if newCtx.Depth() == 1 {
			base := prof.FuncProfile(cp.Name)
			if base.Checksum == 0 {
				base.Checksum = cp.Checksum
			}
			base.Merge(cp)
			reannotate[cp.Name] = true
			continue
		}
		dst := prof.ContextProfile(newCtx)
		dst.ShouldInline = dst.ShouldInline || cp.ShouldInline
		dst.Merge(cp)
	}
	for name := range reannotate {
		f := p.Funcs[name]
		fp := prof.Funcs[name]
		if f == nil || fp == nil {
			continue
		}
		if fp.Checksum != 0 && f.Checksum != 0 && fp.Checksum != f.Checksum {
			var ast AnnotateStats
			degradeStale(f, fp, m, &ast)
			continue
		}
		annotateProbe(f, fp)
		f.EntryCount = fp.HeadSamples
		f.HasProfile = true
	}
}

// contextKeyForCall renders the profile context key of a call instruction
// rooted at the enclosing physical function: the call probe's inline chain
// (outermost first), the probe's own site, and the callee as leaf.
func contextKeyForCall(call *ir.Instr, callee string) string {
	var chain []profdata.ContextFrame
	for s := call.Probe.InlinedAt; s != nil; s = s.Parent {
		chain = append(chain, profdata.ContextFrame{Func: s.Func, Site: profdata.LocKey{ID: s.CallID}})
	}
	ctx := make(profdata.Context, 0, len(chain)+2)
	for i := len(chain) - 1; i >= 0; i-- {
		ctx = append(ctx, chain[i])
	}
	ctx = append(ctx, profdata.ContextFrame{Func: call.Probe.Func, Site: profdata.LocKey{ID: call.Probe.ID}})
	ctx = append(ctx, profdata.ContextFrame{Func: callee})
	return ctx.Key()
}

// sampleInlineAutoFDO is AutoFDO's early top-down inliner: with only
// context-insensitive line profiles available, it inlines call sites whose
// block weight is hot relative to the caller, conservatively (the paper
// notes early inlining on unoptimized IR must be conservative because cost
// estimates are poor). The inlined body is annotated by scaling the
// callee's base profile — the context-insensitive approximation.
func sampleInlineAutoFDO(p *ir.Program, params inlineParams) int {
	cg := ir.BuildCallGraph(p)
	inlines := 0
	for _, name := range cg.TopDownOrder() {
		f := p.Funcs[name]
		if f == nil || !f.HasProfile || f.EntryCount == 0 {
			continue
		}
		for pass := 0; pass < 4; pass++ {
			changed := false
			for _, b := range f.Blocks {
				if !b.HasWeight || b.Weight == 0 {
					continue
				}
				hot := b.Weight*1000 >= f.EntryCount*uint64(params.HotCallsiteFraction)
				if !hot {
					continue
				}
				for i := 0; i < len(b.Instrs); i++ {
					in := &b.Instrs[i]
					if in.Op != ir.OpCall || in.TailCall {
						continue
					}
					callee := p.Funcs[in.Callee]
					if callee == nil || callee == f || cg.InSameSCC(f.Name, in.Callee) {
						continue
					}
					if !callee.HasProfile || callee.EntryCount == 0 {
						continue
					}
					// Conservative: early IR cost estimate, modest cap.
					size := realSize(callee)
					if size > params.SizeThreshold {
						continue
					}
					// ThinLTO: cross-module bodies only via summary import
					// (judged on the pre-optimization summary size).
					if callee.Module != f.Module && summarySize(callee) > params.ImportThreshold {
						continue
					}
					if err := inlineCall(p, f, b, i, nil); err != nil {
						continue
					}
					inlines++
					changed = true
					break
				}
				if changed {
					break
				}
			}
			if !changed {
				break
			}
		}
	}
	return inlines
}
