package opt

import "csspgo/internal/ir"

// ifConvertResult reports conversions performed and ones a probe barrier
// prevented.
type ifConvertResult struct {
	Converted int
	Blocked   int
}

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
// maxArmInstrs bounds each arm's real instruction count.
func ifConvert(f *ir.Function, barrier BarrierStrength, maxArmInstrs int) ifConvertResult {
	var res ifConvertResult
	for {
		converted := false
		f.RebuildCFG()
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
				res.Blocked++
				continue
			}
			convertDiamond(f, a, t, fb, join)
			res.Converted++
			converted = true
			break
		}
		if !converted {
			return res
		}
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
func convertDiamond(f *ir.Function, a, t, fb, join *ir.Block) {
	cond := a.Term.Cond
	// Rename arm defs into fresh registers, tracking final value per dest.
	emitArm := func(src *ir.Block) map[ir.Reg]ir.Reg {
		rename := map[ir.Reg]ir.Reg{}
		renamed := renamer(rename)
		final := map[ir.Reg]ir.Reg{}
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
				final[d] = nd
				in.Dst = nd
			}
			a.Instrs = append(a.Instrs, in)
		}
		return final
	}
	tFinal := emitArm(t)
	fFinal := emitArm(fb)

	// Selects per destination register (sorted for determinism).
	var dests []ir.Reg
	seen := map[ir.Reg]bool{}
	for d := range tFinal {
		if !seen[d] {
			seen[d] = true
			dests = append(dests, d)
		}
	}
	for d := range fFinal {
		if !seen[d] {
			seen[d] = true
			dests = append(dests, d)
		}
	}
	for i := 1; i < len(dests); i++ {
		for j := i; j > 0 && dests[j] < dests[j-1]; j-- {
			dests[j], dests[j-1] = dests[j-1], dests[j]
		}
	}
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
	t.Instrs, fb.Instrs = nil, nil
	t.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	fb.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	removeBlock(f, t)
	removeBlock(f, fb)
	f.RebuildCFG()
}

// renamer returns the register mapping for ir's MapUses that follows
// rename (as it stands at each call) and leaves other registers alone.
func renamer(rename map[ir.Reg]ir.Reg) func(ir.Reg) ir.Reg {
	return func(r ir.Reg) ir.Reg {
		if nr, ok := rename[r]; ok {
			return nr
		}
		return r
	}
}
