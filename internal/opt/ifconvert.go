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
// per destination register. A's instructions grow once, by exactly what is
// appended.
func (ws *workspace) convertDiamond(f *ir.Function, a, t, fb, join *ir.Block) {
	cond := a.Term.Cond
	// Selects per destination register: every register either arm defines,
	// sorted for determinism.
	dests := ws.ifc.dests[:0]
	n := 0
	for _, arm := range [2]*ir.Block{t, fb} {
		for i := range arm.Instrs {
			in := &arm.Instrs[i]
			if in.Op == ir.OpProbe || in.Op == ir.OpCounter {
				continue
			}
			n++
			if d := in.Def(); d != ir.NoReg {
				dests = append(dests, d)
			}
		}
	}
	slices.Sort(dests)
	dests = slices.Compact(dests)
	ws.ifc.dests = dests
	a.Instrs = slices.Grow(a.Instrs, n+len(dests))
	ws.ifc.t = emitArm(f, a, t, ws.ifc.t[:0])
	ws.ifc.f = emitArm(f, a, fb, ws.ifc.f[:0])
	for _, d := range dests {
		// An arm that does not define d leaves the old value.
		a.Instrs = append(a.Instrs, ir.Instr{
			Op: ir.OpSelect, Dst: d, A: cond, B: renamed(ws.ifc.t, d), C: renamed(ws.ifc.f, d), Loc: a.Term.Loc,
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

// regPair renames one register of an arm: later uses of from read to.
type regPair struct{ from, to ir.Reg }

// ifcScratch is if-conversion's per-diamond scratch: each arm's renaming
// and the selects' destinations. An arm has at most maxArmInstrs
// definitions, so a renaming is a short list searched in order.
type ifcScratch struct {
	t, f  []regPair
	dests []ir.Reg
}

// renamed is r under the renaming: the register its last definition in the
// arm was renamed to, or r itself.
func renamed(rename []regPair, r ir.Reg) ir.Reg {
	for _, p := range rename {
		if p.from == r {
			return p.to
		}
	}
	return r
}

// emitArm appends the arm's instructions to a, less its probes and
// counters (dropped under the weak barrier): each definition goes to a
// fresh register, and later uses in the arm read it. It returns rename
// extended by the arm's renaming, one pair per register defined.
func emitArm(f *ir.Function, a, arm *ir.Block, rename []regPair) []regPair {
	for i := range arm.Instrs {
		if op := arm.Instrs[i].Op; op == ir.OpProbe || op == ir.OpCounter {
			continue
		}
		a.Instrs = append(a.Instrs, arm.Instrs[i].Clone())
		in := &a.Instrs[len(a.Instrs)-1]
		in.MapUses(func(r ir.Reg) ir.Reg { return renamed(rename, r) })
		if d := in.Def(); d != ir.NoReg {
			nd := f.NewReg()
			if j := slices.IndexFunc(rename, func(p regPair) bool { return p.from == d }); j >= 0 {
				rename[j].to = nd
			} else {
				rename = append(rename, regPair{d, nd})
			}
			in.Dst = nd
		}
	}
	return rename
}
