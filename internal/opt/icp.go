package opt

import (
	"csspgo/internal/ir"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
)

// Indirect-call promotion thresholds.
const (
	// icpMinRatioPct: the dominant target must cover at least this share of
	// the site's sampled targets. High dominance is required: a guarded
	// compare at a 70/30 site mispredicts as often as the indirect branch
	// it replaces; the win appears at ~85%+ dominance (plus the inlining it
	// unlocks).
	icpMinRatioPct = 80
	// icpMinCount: minimum sampled/counted calls to the dominant target.
	icpMinCount = 6
	// icpMaxPerFunction bounds promotions per function.
	icpMaxPerFunction = 8
)

// icp performs profile-guided indirect-call promotion: an indirect call
// whose target distribution is dominated by one callee is rewritten to
//
//	if target == &dominant { dominant(args) } else { icall target(args) }
//
// making the hot path a direct call that later inlining can consume. The
// target distributions come from value profiles: exact histograms under
// instrumentation PGO, LBR-sampled ones under sampling PGO — the quality
// gap the paper names as instrumentation's remaining advantage.
//
// Both copies of the call keep the original call-site probe (duplication
// semantics: future probe profiles sum the copies), and block weights are
// split by the observed ratio. A site qualifies when its dominant target
// has at least minCount calls. Returns the number of promotions.
func icp(p *ir.Program, f *ir.Function, prof *profdata.Profile, minCount uint64) int {
	if prof == nil {
		return 0
	}
	promotions := 0
	// The fallback copy a promotion leaves behind matches the same profile
	// entry; remember promoted sites so each is rewritten at most once.
	type siteKey struct {
		owner string
		loc   profdata.LocKey
	}
	done := map[siteKey]bool{}
	for pass := 0; pass < icpMaxPerFunction; pass++ {
		promoted := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := &b.Instrs[i]
				if in.Op != ir.OpICall {
					continue
				}
				owner, loc, ok := icallLoc(f, in, prof.Kind)
				if !ok || done[siteKey{owner, loc}] {
					continue
				}
				done[siteKey{owner, loc}] = true
				fp := prof.Funcs[owner]
				if fp == nil {
					continue
				}
				targets := fp.Calls[loc]
				dominant, domCount, total := dominantTarget(targets)
				if dominant == "" || total == 0 || domCount < minCount {
					continue
				}
				if int(100*domCount/total) < icpMinRatioPct {
					continue
				}
				if _, exists := p.Funcs[dominant]; !exists {
					continue
				}
				promoteICall(p, f, b, i, dominant, domCount, total)
				promotions++
				promoted = true
				break
			}
			if promoted {
				break
			}
		}
		if !promoted {
			break
		}
	}
	if promotions > 0 {
		f.RebuildCFG()
	}
	return promotions
}

// icallLoc keys the indirect call in the profile's location space: the
// owning (defining) function plus its location there. Inlined copies keep
// their original identity (the probe's defining function, or the leaf
// debug frame), so promotion still finds target data after inlining.
func icallLoc(f *ir.Function, in *ir.Instr, kind profdata.Kind) (string, profdata.LocKey, bool) {
	if kind == profdata.ProbeBased {
		if in.Probe == nil {
			return "", profdata.LocKey{}, false
		}
		return in.Probe.Func, profdata.LocKey{ID: in.Probe.ID}, true
	}
	if in.Loc == nil {
		return "", profdata.LocKey{}, false
	}
	// Leaf debug frame: line offset is relative to the defining function.
	var start int32
	if in.Loc.Func == f.Name {
		start = f.StartLine
	} else {
		return "", profdata.LocKey{}, false // offset base unknown here
	}
	return in.Loc.Func, profdata.LocKey{ID: in.Loc.Line - start, Disc: in.Loc.Disc}, true
}

func dominantTarget(targets map[string]uint64) (string, uint64, uint64) {
	var best string
	var bestN, total uint64
	for callee, n := range targets {
		total += n
		if n > bestN || n == bestN && callee < best {
			best = callee
			bestN = n
		}
	}
	return best, bestN, total
}

// promoteICall rewrites the indirect call at (b, idx) into a guarded
// direct call to dominant.
func promoteICall(p *ir.Program, f *ir.Function, b *ir.Block, idx int, dominant string, domCount, total uint64) {
	icall := b.Instrs[idx]

	direct := f.NewBlock()
	indirect := f.NewBlock()
	merge := f.NewBlock()

	// Split b after the icall; the merge block takes the tail.
	merge.Instrs = append(merge.Instrs, b.Instrs[idx+1:]...)
	merge.Term = b.Term
	b.Instrs = truncate(b.Instrs, idx)

	fref := f.NewReg()
	cmp := f.NewReg()
	b.Instrs = append(b.Instrs,
		ir.Instr{Op: ir.OpFuncRef, Dst: fref, Callee: dominant, Loc: icall.Loc},
		ir.Instr{Op: ir.OpBin, BinKind: ir.BinEq, Dst: cmp, A: icall.A, B: fref, Loc: icall.Loc},
	)
	b.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cmp, Succs: []*ir.Block{direct, indirect}, Loc: icall.Loc}

	// Direct copy: a real call, same probe (duplication), same Loc.
	directCall := icall.Clone()
	directCall.Op = ir.OpCall
	directCall.Callee = dominant
	directCall.A = ir.NoReg
	direct.Instrs = append(direct.Instrs, directCall)
	direct.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{merge}}

	indirectCall := icall.Clone()
	indirect.Instrs = append(indirect.Instrs, indirectCall)
	indirect.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{merge}}

	// Profile maintenance: split by observed ratio.
	if b.HasWeight {
		dw := b.Weight * domCount / total
		direct.Weight, direct.HasWeight = dw, true
		indirect.Weight, indirect.HasWeight = b.Weight-dw, true
		merge.Weight, merge.HasWeight = b.Weight, true
		b.Term.EdgeW = []uint64{direct.Weight, indirect.Weight}
		direct.Term.EdgeW = []uint64{direct.Weight}
		indirect.Term.EdgeW = []uint64{indirect.Weight}
	}
	_ = probe.BlockProbe // (block probes for the new blocks are intentionally absent: they are compiler-introduced control flow, like LLVM's ICP-generated blocks)
	_ = p
}

// icpPass splits blocks and adds compare/branch diamonds with estimated
// weights — not flow-conserved until the next inference run.
var icpPass = registerPass("icp", flowPerturbs, semRestructures)

// icpProgram promotes across the whole program. prof must be a flat
// (context-insensitive) view of the input profile — callers pass a
// flattened clone so context-sensitive inputs also feed target data.
//
// The per-site count floor is derived from the profile summary (LLVM
// -style): a site qualifies only when its dominant target's count reaches
// the program's hot-count threshold, so exact (instrumentation) profiles
// don't promote every lukewarm site just because their counts are precise.
func icpProgram(p *ir.Program, prof *profdata.Profile) int {
	minCount := max(hotCallThreshold(prof), icpMinCount)
	n := 0
	for _, f := range p.Functions() {
		if !f.HasProfile {
			continue
		}
		n += icp(p, f, prof, minCount)
	}
	return n
}

// hotCallThreshold derives the hot bar from the call-site count
// distribution itself: a site qualifies when its traffic is within 16x of
// the program's hottest call site. This scales with profile units (sample
// counts vs exact execution counts) so exact instrumentation profiles
// don't promote every lukewarm site merely because their counts are
// precise.
func hotCallThreshold(prof *profdata.Profile) uint64 {
	var max uint64
	for _, fp := range prof.Funcs {
		for _, m := range fp.Calls {
			var total uint64
			for _, n := range m {
				total += n
			}
			if total > max {
				max = total
			}
		}
	}
	return max / 16
}
