package opt

import (
	"slices"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// licmPass may materialize preheader blocks without profile weights.
var licmPass = registerPass("licm", flowPerturbs, semRestructures)

// licm hoists loop-invariant pure computation into a preheader — the
// code-motion class of optimization that damages debug-info correlation:
// hoisted instructions keep their source lines while moving to a colder
// block. Probes are never moved (their frequency semantics forbid it).
//
// The IR is not SSA and statement temporaries are reused, so hoisting works
// by chain renaming: an invariant instruction is cloned into the preheader
// with a fresh destination register, subsequent in-block uses are renamed,
// and the original instruction is dropped (or replaced by a register move
// when its value is live out of the block). Invariance propagates along
// renamed chains, so whole invariant expression trees move out together.
//
// Returns the number of instructions hoisted.
func (ws *workspace) licm(f *ir.Function) int {
	hoisted := 0
	// One dominator tree for every loop: hoisting moves instructions and
	// ensurePreheader only puts a block on the edges entering a header,
	// neither of which changes dominance between the blocks the tree knows.
	loops, dt := f.NaturalLoopsIn(&ws.loops)
	lc := &ws.hoist
	lc.f, lc.dt, lc.lv = f, dt, &ws.lv
	for _, loop := range loops {
		hoisted += lc.loop(loop)
	}
	if hoisted > 0 {
		f.RebuildCFG()
	}
	return hoisted
}

// hoister is what licm keeps: the function, its dominator tree, the
// liveness workspace and the register-indexed tables every loop and block
// reuse. It lives in the build's workspace, so the tables serve every
// function too; rename is all NoReg between blocks.
type hoister struct {
	f  *ir.Function
	dt *ir.DomTree
	lv *liveness

	// Per loop: how many instructions of the loop define the register,
	// the globals the loop stores to and whether it calls (both block load
	// hoisting), and the preheader once something asked for it.
	defCount      []int32
	storedGlobals map[string]bool
	hasCalls      bool
	preheader     *ir.Block
	// Per block: rename maps a register to its hoisted preheader copy
	// (NoReg = none), valid until the register's next non-hoisted
	// definition in the block; renamed lists the registers that have had an
	// entry, so that only those are reset.
	rename  []ir.Reg
	renamed []ir.Reg
}

func (lc *hoister) loop(loop *ir.Loop) int {
	f := lc.f
	// The registers there are now; the ones hoisting adds are only ever
	// written by it, and read through rename.
	if f.NRegs > cap(lc.defCount) {
		lc.defCount = make([]int32, f.NRegs+f.NRegs/4)
		lc.rename = make([]ir.Reg, cap(lc.defCount))
		for i := range lc.rename {
			lc.rename[i] = ir.NoReg
		}
	}
	lc.defCount = lc.defCount[:f.NRegs]
	clear(lc.defCount)
	lc.storedGlobals = nil
	lc.hasCalls = false
	lc.preheader = nil
	for _, b := range loop.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				lc.defCount[d]++
			}
			switch in.Op {
			case ir.OpStoreG:
				if lc.storedGlobals == nil {
					lc.storedGlobals = map[string]bool{}
				}
				lc.storedGlobals[in.Sym()] = true
			case ir.OpCall, ir.OpICall:
				lc.hasCalls = true
			}
		}
	}

	dominatesAllLatches := func(b *ir.Block) bool {
		for _, l := range loop.Latches {
			if !lc.dt.Dominates(b, l) {
				return false
			}
		}
		return true
	}

	// Liveness is taken again for every loop, into the one workspace. Once
	// per function would not do: a register hoisted out of an inner loop
	// did not exist when the function's liveness was taken, and it is
	// hoisted once more out of the outer loop when the inner preheader is
	// one of the outer loop's blocks; and moving a read into a preheader
	// clears the operand's live-out bit there, which decides the residual
	// move of an operand the outer loop hoists from that same block.
	lc.lv.reset(f)
	lc.lv.solve(f)
	hoisted := 0
	// Function block order, not map order: blocks hoist into one shared
	// preheader, so the visiting order decides the emitted instruction order.
	// The workspace covers the blocks there were when it was reset; a
	// preheader appended since is outside the loop.
	for i, b := range f.Blocks[:lc.lv.n] {
		if !loop.Contains(b) || !dominatesAllLatches(b) {
			continue
		}
		hoisted += lc.block(loop, b, lc.lv.out(i))
	}
	return hoisted
}

// block hoists invariant chains out of one always-executed loop block.
func (lc *hoister) block(loop *ir.Loop, b *ir.Block, liveOutB analysis.BitSet) int {
	f, rename := lc.f, lc.rename
	// A register is invariant when it holds a hoisted value or nothing in
	// the loop writes it.
	invariantReg := func(r ir.Reg) bool {
		return rename[r] != ir.NoReg || lc.defCount[r] == 0
	}
	// Uses of renamed registers see their preheader copies.
	renamed := func(r ir.Reg) ir.Reg {
		if nr := rename[r]; nr != ir.NoReg {
			return nr
		}
		return r
	}

	hoistedCount := 0
	kept := 0 // b.Instrs[:kept] are the instructions that stay, compacted in place
	for i := range b.Instrs {
		in := &b.Instrs[i]
		invariant := false
		switch in.Op {
		case ir.OpConst, ir.OpFuncRef, ir.OpBin, ir.OpNot, ir.OpNeg, ir.OpMove, ir.OpSelect:
			invariant = true
		case ir.OpLoadG:
			invariant = !lc.storedGlobals[in.Sym()] && !lc.hasCalls
		}
		in.Uses(func(r ir.Reg) { invariant = invariant && invariantReg(r) })
		d := in.Def()
		var ph *ir.Block
		if invariant && d != ir.NoReg {
			if lc.preheader == nil {
				lc.preheader = ensurePreheader(f, loop)
			}
			ph = lc.preheader
		}
		if ph == nil {
			// Not hoisted (no preheader can be had, at worst).
			in.MapUses(renamed)
			if d != ir.NoReg {
				rename[d] = ir.NoReg
			}
			if kept != i {
				b.Instrs[kept] = *in
			}
			kept++
			continue
		}
		// Hoist a renamed clone; keep the original Loc (code motion keeps
		// the source line — the correlation hazard).
		clone := in.Clone()
		clone.MapUses(renamed)
		nr := f.NewReg()
		clone.Dst = nr
		ph.Instrs = append(ph.Instrs, clone)
		rename[d] = nr
		lc.renamed = append(lc.renamed, d)
		hoistedCount++
	}
	if hoistedCount == 0 {
		return 0 // nothing moved: no entry in rename, the slice as it was
	}
	b.Instrs = truncate(b.Instrs, kept)

	// Residual moves for hoisted values the terminator reads or that are
	// live out of the block, the latter in ascending register order, not
	// hoisting order: the moves are independent, but their order is the
	// emitted instruction order.
	b.Term.Uses(func(r ir.Reg) {
		if nr := rename[r]; nr != ir.NoReg {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: nr})
			rename[r] = ir.NoReg
		}
	})
	slices.Sort(lc.renamed)
	for _, r := range lc.renamed {
		// A register hoisted twice is listed twice; its entry is gone the
		// second time.
		if nr := rename[r]; nr != ir.NoReg {
			if liveOutB.Has(int(r)) {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: nr})
			}
			rename[r] = ir.NoReg
		}
	}
	lc.renamed = lc.renamed[:0]
	return hoistedCount
}

// ensurePreheader returns (creating if needed) a block that is the unique
// non-latch predecessor of the loop header. Returns nil when the header's
// edges cannot be safely rewritten.
func ensurePreheader(f *ir.Function, loop *ir.Loop) *ir.Block {
	header := loop.Header
	f.RebuildCFG()
	var outside []*ir.Block
	for _, p := range header.Preds {
		if !loop.Contains(p) {
			outside = append(outside, p)
		}
	}
	if header == f.Entry() {
		return nil
	}
	if len(outside) == 1 && outside[0].Term.Kind == ir.TermJump {
		return outside[0]
	}
	ph := f.NewBlock()
	ph.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{header}}
	var w uint64
	hasW := false
	for _, p := range outside {
		for si, s := range p.Term.Succs {
			if s == header {
				p.Term.Succs[si] = ph
				if si < len(p.Term.EdgeW) {
					w += p.Term.EdgeW[si]
					hasW = true
				}
			}
		}
	}
	ph.Weight = w
	ph.HasWeight = hasW
	ph.Term.EdgeW = []uint64{w}
	f.RebuildCFG()
	return ph
}
