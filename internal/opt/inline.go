package opt

import (
	"fmt"

	"csspgo/internal/ir"
	"csspgo/internal/profdata"
)

// summarySize returns the ThinLTO summary (pre-optimization) size.
func summarySize(f *ir.Function) int {
	if f.SummarySize > 0 {
		return f.SummarySize
	}
	return realSize(f)
}

// realSize counts a function's non-probe instructions (the inliners' cost
// proxy on IR).
func realSize(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.OpProbe {
				n++
			}
		}
	}
	return n
}

// inlineCall inlines the call at (b, idx) in caller. ctxProfile, when
// non-nil, annotates the inlined body with its context-sensitive profile;
// otherwise, when the caller/callee carry weights, the inlined body is
// scaled by callsiteWeight/calleeEntryCount — the inaccurate
// context-insensitive scaling of the paper's Fig. 3a.
//
// Cloned instructions get their debug locations re-parented (inlined-at
// chains) and cloned probes get their inline contexts extended through the
// call site's probe — exactly the bookkeeping DWARF and pseudo-probe
// metadata need for later correlation.
func inlineCall(p *ir.Program, caller *ir.Function, b *ir.Block, idx int, ctxProfile *profdata.FunctionProfile) error {
	call := b.Instrs[idx]
	if call.Op != ir.OpCall {
		return fmt.Errorf("inline: not a call")
	}
	callee := p.Funcs[call.Callee]
	if callee == nil {
		return fmt.Errorf("inline: unknown callee %q", call.Callee)
	}
	if callee == caller {
		return fmt.Errorf("inline: direct recursion")
	}

	// Clone callee body with registers shifted into the caller's space.
	regBase := ir.Reg(caller.NRegs)
	caller.NRegs += callee.NRegs
	bmap := ir.CloneRegion(caller, callee.Blocks, func(r ir.Reg) ir.Reg { return r + regBase })
	entryClone := bmap[callee.Entry()]

	// Split b: everything after the call moves to the join block.
	join := caller.NewBlock()
	join.Instrs = append(join.Instrs, b.Instrs[idx+1:]...)
	join.Term = b.Term
	join.Weight, join.HasWeight = b.Weight, b.HasWeight
	b.Instrs = truncate(b.Instrs, idx)
	b.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{entryClone}, Loc: call.Loc}
	if b.HasWeight {
		b.Term.EdgeW = []uint64{b.Weight}
	}

	// Argument moves.
	for i, arg := range call.Args {
		if i >= len(callee.Params) {
			break
		}
		b.Instrs = append(b.Instrs, ir.Instr{
			Op: ir.OpMove, Dst: regBase + ir.Reg(i), A: arg, Loc: call.Loc,
		})
	}

	// Rewire cloned returns to the join, forwarding the return value.
	for _, ob := range callee.Blocks {
		nb := bmap[ob]
		if nb.Term.Kind != ir.TermReturn {
			continue
		}
		if call.Dst != ir.NoReg {
			if nb.Term.Val != ir.NoReg {
				nb.Instrs = append(nb.Instrs, ir.Instr{
					Op: ir.OpMove, Dst: call.Dst, A: nb.Term.Val, Loc: call.Loc,
				})
			} else {
				nb.Instrs = append(nb.Instrs, ir.Instr{
					Op: ir.OpConst, Dst: call.Dst, Value: 0, Loc: call.Loc,
				})
			}
		}
		nb.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{join}, Loc: call.Loc}
	}

	// Re-parent debug locations and probe inline contexts.
	var probeSite *ir.ProbeSite
	if call.Probe != nil {
		probeSite = &ir.ProbeSite{Func: call.Probe.Func, CallID: call.Probe.ID, Parent: call.Probe.InlinedAt}
	}
	for _, ob := range callee.Blocks {
		nb := bmap[ob]
		for i := range nb.Instrs {
			in := &nb.Instrs[i]
			in.Loc = reparentLoc(in.Loc, call.Loc)
			if in.Probe != nil && probeSite != nil {
				in.Probe = reparentProbe(in.Probe, probeSite)
			}
		}
		nb.Term.Loc = reparentLoc(nb.Term.Loc, call.Loc)
	}

	// Profile maintenance for the inlined body.
	switch {
	case ctxProfile != nil:
		annotateClonedFromContext(callee, bmap, ctxProfile)
	case b.HasWeight && callee.HasProfile && callee.EntryCount > 0:
		for _, ob := range callee.Blocks {
			nb := bmap[ob]
			if ob.HasWeight {
				nb.Weight = ob.Weight * b.Weight / callee.EntryCount
				nb.HasWeight = true
				for wi := range nb.Term.EdgeW {
					nb.Term.EdgeW[wi] = nb.Term.EdgeW[wi] * b.Weight / callee.EntryCount
				}
			}
		}
	}

	caller.RebuildCFG()
	return nil
}

// annotateClonedFromContext weights the freshly inlined blocks from a
// context-sensitive profile keyed by the callee's own probe IDs.
func annotateClonedFromContext(callee *ir.Function, bmap map[*ir.Block]*ir.Block, cp *profdata.FunctionProfile) {
	for _, ob := range callee.Blocks {
		nb := bmap[ob]
		// The clone's block probe still carries the callee's probe ID.
		for i := range nb.Instrs {
			in := &nb.Instrs[i]
			if in.Op == ir.OpProbe && in.Probe.Kind == ir.ProbeBlock {
				nb.Weight = cp.BodyAt(profdata.LocKey{ID: in.Probe.ID})
				nb.HasWeight = true
				break
			}
		}
	}
}

// reparentLoc deep-copies the location chain, attaching callLoc as the
// outermost inlined-at parent. A nil location inherits the call site's.
func reparentLoc(l, callLoc *ir.Loc) *ir.Loc {
	if callLoc == nil {
		return l
	}
	if l == nil {
		return callLoc
	}
	out := *l
	if l.Parent != nil {
		out.Parent = reparentLoc(l.Parent, callLoc)
	} else {
		out.Parent = callLoc
	}
	return &out
}

// reparentProbe deep-copies the probe, extending its inline chain with the
// call site.
func reparentProbe(p *ir.Probe, site *ir.ProbeSite) *ir.Probe {
	out := *p
	out.InlinedAt = appendSite(p.InlinedAt, site)
	return &out
}

func appendSite(chain, site *ir.ProbeSite) *ir.ProbeSite {
	if chain == nil {
		return site
	}
	out := *chain
	out.Parent = appendSite(chain.Parent, site)
	return &out
}

// inlinePass grafts scaled callee CFGs into callers.
var inlinePass = registerPass("inline", flowPerturbs, semRestructures)

// bottomUpInline is the main (CGSCC-order) inliner: functions are visited
// callees-first; call sites are inlined when the callee is small enough,
// with a larger budget at profile-hot call sites and a token budget for
// cold ones. ThinLTO partitioning is respected: cross-module callees
// inline only when small enough to have been imported by summary.
func bottomUpInline(p *ir.Program, params inlineParams, profiled bool) int {
	cg := ir.BuildCallGraph(p)
	inlines := 0
	for _, name := range cg.BottomUpOrder() {
		f := p.Funcs[name]
		if f == nil {
			continue
		}
		inlines += inlineInto(p, cg, f, params, profiled)
	}
	return inlines
}

func inlineInto(p *ir.Program, cg *ir.CallGraph, f *ir.Function, params inlineParams, profiled bool) int {
	inlines := 0
	budgetSize := realSize(f)
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := &b.Instrs[i]
				if in.Op != ir.OpCall || in.TailCall {
					continue
				}
				callee := p.Funcs[in.Callee]
				if callee == nil || callee == f || cg.InSameSCC(f.Name, in.Callee) {
					continue
				}
				size := realSize(callee)
				if !shouldInline(f, b, callee, size, params, profiled) {
					continue
				}
				if budgetSize+size > params.GrowthCap {
					continue
				}
				if err := inlineCall(p, f, b, i, nil); err != nil {
					continue
				}
				budgetSize += size
				inlines++
				changed = true
				break // b's instruction list changed; rescan function
			}
			if changed {
				break
			}
		}
		if !changed {
			break
		}
	}
	return inlines
}

func shouldInline(caller *ir.Function, site *ir.Block, callee *ir.Function, size int, params inlineParams, profiled bool) bool {
	if size <= params.TinyThreshold {
		return true
	}
	// ThinLTO: cross-module bodies are only available via summary import;
	// importability is judged on the pre-optimization summary size.
	if callee.Module != caller.Module && summarySize(callee) > params.ImportThreshold {
		return false
	}
	if !profiled || !site.HasWeight || !caller.HasProfile {
		return size <= params.SizeThreshold
	}
	// Profile-guided: hot call sites get the big threshold, cold ones none.
	hot := site.Weight*1000 >= caller.EntryCount*uint64(params.HotCallsiteFraction)
	if site.Weight == 0 {
		return false
	}
	if hot {
		return size <= params.HotThreshold
	}
	return size <= params.SizeThreshold
}
