package opt

import (
	"slices"

	"csspgo/internal/ir"
)

// ifConvertPass collapses diamonds to selects, merging arm weights.
var ifConvertPass = registerPass("if-convert", flowPerturbs, semRestructures)

// ifConvert flattens small diamonds (branch → two tiny pure arms → join)
// into straight-line code with select instructions, removing a conditional
// branch. This is a code-merge optimization:
//
//   - BarrierStrong (instrumentation): any probe/counter in an arm blocks
//     the conversion — counters must keep counting their own block.
//   - BarrierWeak (pseudo-instrumentation, production tuning): the paper's
//     fine-tuned if-convert proceeds; arm block probes are discarded, a
//     deliberate sliver of profile-accuracy loss in exchange for zero
//     run-time overhead.
//   - BarrierNone: proceeds.
//
// maxArmInstrs bounds each arm's real instruction count. Each sweep
// converts every diamond it finds, and may make one of blocks it passed;
// the pass stops after a sweep that converts nothing. It returns the
// diamonds converted and, once each, those a probe barrier kept.
func (ws *workspace) ifConvert(f *ir.Function, barrier BarrierStrength, maxArmInstrs int) (converted, blocked int) {
	f.RebuildCFG()
	for {
		n := 0
		blocked = 0
		for _, a := range f.Blocks {
			if a.Term.Kind != ir.TermBranch {
				continue
			}
			t, fb := a.Term.Succs[0], a.Term.Succs[1]
			if t == fb || t == f.Entry() || fb == f.Entry() {
				continue
			}
			join := diamondJoin(t, fb)
			if join == nil || len(t.Preds) != 1 || len(fb.Preds) != 1 {
				continue
			}
			tOK, tProbes := armConvertible(t, maxArmInstrs)
			fOK, fProbes := armConvertible(fb, maxArmInstrs)
			if !tOK || !fOK {
				continue
			}
			if (tProbes || fProbes) && barrier == BarrierStrong {
				blocked++
				continue
			}
			ws.convertDiamond(f, a, t, fb, join)
			n++
		}
		if n == 0 {
			return converted, blocked // blocked as the fixed point has it
		}
		converted += n
		ws.dropMarked(f)
	}
}

// diamondJoin returns the common single successor of both arms, or nil.
func diamondJoin(t, f *ir.Block) *ir.Block {
	if t.Term.Kind != ir.TermJump || f.Term.Kind != ir.TermJump {
		return nil
	}
	if t.Term.Succs[0] != f.Term.Succs[0] {
		return nil
	}
	return t.Term.Succs[0]
}

// armConvertible reports whether the block contains only pure register
// writes (plus probes/counters, reported separately).
func armConvertible(b *ir.Block, max int) (ok, hasProbes bool) {
	real := 0
	for i := range b.Instrs {
		switch b.Instrs[i].Op {
		case ir.OpProbe, ir.OpCounter:
			hasProbes = true
		case ir.OpConst, ir.OpBin, ir.OpNot, ir.OpNeg, ir.OpMove, ir.OpSelect:
			real++
		default:
			return false, hasProbes
		}
	}
	return real <= max, hasProbes
}

// convertDiamond rewrites A: br cond {T, F} → J into straight-line code:
// both arms' computations run into renamed temporaries, then selects pick
// per destination register.
func (ws *workspace) convertDiamond(f *ir.Function, a, t, fb, join *ir.Block) {
	cond := a.Term.Cond
	// Rename arm defs into fresh registers; the renaming ends as the final
	// value per dest.
	emitArm := func(src *ir.Block) map[ir.Reg]ir.Reg {
		rename := map[ir.Reg]ir.Reg{}
		renamed := func(r ir.Reg) ir.Reg {
			if nr, ok := rename[r]; ok {
				return nr
			}
			return r
		}
		for i := range src.Instrs {
			in := src.Instrs[i].Clone()
			if in.Op == ir.OpProbe || in.Op == ir.OpCounter {
				continue // weak barrier: arm probes dropped
			}
			// Remap uses of earlier arm defs.
			in.MapUses(renamed)
			if d := in.Def(); d != ir.NoReg {
				nd := f.NewReg()
				rename[d] = nd
				in.Dst = nd
			}
			a.Instrs = append(a.Instrs, in)
		}
		return rename
	}
	tFinal := emitArm(t)
	fFinal := emitArm(fb)

	// Selects per destination register (sorted for determinism).
	dests := make([]ir.Reg, 0, len(tFinal)+len(fFinal))
	for d := range tFinal {
		dests = append(dests, d)
	}
	for d := range fFinal {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	dests = slices.Compact(dests)
	for _, d := range dests {
		tv, ok := tFinal[d]
		if !ok {
			tv = d // arm leaves the old value
		}
		fv, ok := fFinal[d]
		if !ok {
			fv = d
		}
		a.Instrs = append(a.Instrs, ir.Instr{
			Op: ir.OpSelect, Dst: d, A: cond, B: tv, C: fv, Loc: a.Term.Loc,
		})
	}
	a.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{join}, Loc: a.Term.Loc}
	if a.HasWeight {
		a.Term.EdgeW = []uint64{a.Weight}
	}
	// The only list that changes: both arms leave the join's, and a joins it.
	join.Preds = append(slices.DeleteFunc(join.Preds, func(p *ir.Block) bool { return p == t || p == fb }), a)
	ws.markRemoved(t)
	ws.markRemoved(fb)
}
