package opt

import (
	"csspgo/internal/ir"
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
func icp(p *ir.Program, f *ir.Function, calls callHistograms, kind profdata.Kind, minCount uint64) int {
	// The fallback copy a promotion leaves behind matches the same profile
	// entry; remember promoted sites so each is rewritten at most once.
	type siteKey struct {
		owner string
		loc   profdata.LocKey
	}
	done := map[siteKey]bool{}
	promotions := rewriteSites(f, icpMaxPerFunction, func(b *ir.Block, i int) bool {
		in := &b.Instrs[i]
		if in.Op != ir.OpICall {
			return false
		}
		owner, loc, ok := icallLoc(f, in, kind)
		if !ok || done[siteKey{owner, loc}] {
			return false
		}
		done[siteKey{owner, loc}] = true
		var targets []profdata.CallCount
		if h := calls[owner]; h != nil {
			targets = h.CallsAt(loc)
		}
		dominant, domCount, total := dominantTarget(targets)
		if dominant == "" || total == 0 || domCount < minCount || int(100*domCount/total) < icpMinRatioPct {
			return false
		}
		if _, exists := p.Funcs[dominant]; !exists {
			return false
		}
		promoteICall(f, b, i, dominant, domCount, total)
		return true
	})
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

// dominantTarget returns the hottest of one site's targets, which come by
// name (ties to the smallest name; none when every count is zero), its
// count and the site's total.
func dominantTarget(targets []profdata.CallCount) (string, uint64, uint64) {
	var best string
	var bestN, total uint64
	for _, c := range targets {
		total += c.N
		if c.N > bestN {
			best, bestN = c.Callee, c.N
		}
	}
	return best, bestN, total
}

// promoteICall rewrites the indirect call at (b, idx) into a guarded
// direct call to dominant. The new blocks get no block probes: they are
// compiler-introduced control flow, like LLVM's ICP-generated blocks.
func promoteICall(f *ir.Function, b *ir.Block, idx int, dominant string, domCount, total uint64) {
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
		ir.Instr{Op: ir.OpFuncRef, Dst: fref, Ext: &ir.Operands{Sym: dominant}, Loc: icall.Loc},
		ir.Instr{Op: ir.OpBin, BinKind: ir.BinEq, Dst: cmp, A: icall.A, B: fref, Loc: icall.Loc},
	)
	b.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cmp, Succs: []*ir.Block{direct, indirect}, Loc: icall.Loc}

	// Direct copy: a real call, same probe (duplication), same Loc. The
	// clone owns its operand record, so the callee is written in place.
	directCall := icall.Clone()
	directCall.Op = ir.OpCall
	if directCall.Ext == nil {
		directCall.Ext = &ir.Operands{}
	}
	directCall.Ext.Sym = dominant
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
}

// icpPass splits blocks and adds compare/branch diamonds with estimated
// weights — not flow-conserved until the next inference run.
var icpPass = registerPass("icp", flowPerturbs, semRestructures)

// icpProgram promotes across the whole program. calls is the flat
// (context-insensitive) view of the input profile's call targets, so
// context-sensitive inputs also feed target data; kind is the profile's.
//
// The per-site count floor is derived from the profile summary (LLVM
// -style): a site qualifies only when its dominant target's count reaches
// the program's hot-count threshold, so exact (instrumentation) profiles
// don't promote every lukewarm site just because their counts are precise.
func icpProgram(p *ir.Program, calls callHistograms, kind profdata.Kind) int {
	minCount := max(hotCallThreshold(calls), icpMinCount)
	n := 0
	for _, f := range p.Functions() {
		if !f.HasProfile {
			continue
		}
		n += icp(p, f, calls, kind, minCount)
	}
	return n
}

// callHistograms is the context-insensitive call-target view ICP reads:
// defining function -> a profile whose Calls are that function's call
// records (its other counts are not part of the view).
type callHistograms map[string]*profdata.FunctionProfile

// flatCallHistograms sums the call targets of prof's base and context
// profiles by defining function: the Calls of prof.Flat().Funcs, read
// without cloning the profile. A flat profile's base profiles are shared,
// not copied.
func flatCallHistograms(prof *profdata.Profile) callHistograms {
	out := make(callHistograms, len(prof.Funcs))
	if !prof.CS {
		for name, fp := range prof.Funcs {
			out[name] = fp
		}
		return out
	}
	add := func(fp *profdata.FunctionProfile) {
		h := out[fp.Name]
		if h == nil {
			h = profdata.NewFunctionProfile(fp.Name)
			out[fp.Name] = h
		}
		for _, c := range fp.Calls {
			h.AddCall(c.Loc, c.Callee, c.N)
		}
	}
	for _, fp := range prof.Funcs {
		add(fp)
	}
	for _, fp := range prof.Contexts {
		add(fp)
	}
	return out
}

// hotCallThreshold derives the hot bar from the call-site count
// distribution itself: a site qualifies when its traffic is within 16x of
// the program's hottest call site. This scales with profile units (sample
// counts vs exact execution counts) so exact instrumentation profiles
// don't promote every lukewarm site merely because their counts are
// precise.
func hotCallThreshold(calls callHistograms) uint64 {
	var max, total uint64
	for _, h := range calls {
		for i, c := range h.Calls {
			if i == 0 || h.Calls[i-1].Loc != c.Loc {
				total = 0
			}
			if total += c.N; total > max {
				max = total
			}
		}
	}
	return max / 16
}
