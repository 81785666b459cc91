package opt

import (
	"sort"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// licmPass may materialize preheader blocks without profile weights.
var licmPass = registerPass("licm", flowPerturbs, semRestructures)

// LICM hoists loop-invariant pure computation into a preheader — the
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
func LICM(f *ir.Function) int {
	hoisted := 0
	// One dominator tree for every loop: hoisting moves instructions and
	// ensurePreheader only puts a block on the edges entering a header,
	// neither of which changes dominance between the blocks the tree knows.
	loops, dt := f.NaturalLoops()
	for _, loop := range loops {
		hoisted += licmLoop(f, loop, dt)
	}
	if hoisted > 0 {
		f.RebuildCFG()
	}
	return hoisted
}

func licmLoop(f *ir.Function, loop *ir.Loop, dt *ir.DomTree) int {
	// Registers defined anywhere in the loop.
	defCount := map[ir.Reg]int{}
	for b := range loop.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defCount[d]++
			}
		}
	}
	// Globals stored in the loop and calls block load hoisting.
	storedGlobals := map[string]bool{}
	hasCalls := false
	for b := range loop.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpStoreG:
				storedGlobals[b.Instrs[i].Global] = true
			case ir.OpCall, ir.OpICall:
				hasCalls = true
			}
		}
	}

	dominatesAllLatches := func(b *ir.Block) bool {
		for _, l := range loop.Latches {
			if !dt.Dominates(b, l) {
				return false
			}
		}
		return true
	}

	var preheader *ir.Block
	getPreheader := func() *ir.Block {
		if preheader == nil {
			preheader = ensurePreheader(f, loop)
		}
		return preheader
	}

	liveouts := liveOut(f)
	hoisted := 0
	// Function block order, not map order: blocks hoist into one shared
	// preheader, so the visiting order decides the emitted instruction order.
	// liveouts covers the blocks there were when it was taken; a preheader
	// appended since is outside the loop.
	for i, b := range f.Blocks[:len(liveouts)] {
		if !loop.Blocks[b] || !dominatesAllLatches(b) {
			continue
		}
		hoisted += licmBlock(f, loop, b, defCount, storedGlobals, hasCalls, getPreheader, liveouts[i])
	}
	return hoisted
}

// licmBlock hoists invariant chains out of one always-executed loop block.
func licmBlock(f *ir.Function, loop *ir.Loop, b *ir.Block,
	defCount map[ir.Reg]int, storedGlobals map[string]bool, hasCalls bool,
	getPreheader func() *ir.Block, liveOutB analysis.BitSet) int {

	// rename maps a register to its hoisted preheader copy, valid until the
	// register's next non-hoisted definition in this block.
	rename := map[ir.Reg]ir.Reg{}
	// lastHoisted tracks, per register, whether its most recent def in this
	// block was hoisted (to decide on a residual move at the end).
	lastHoisted := map[ir.Reg]bool{}

	// A register is invariant when it holds a hoisted value or nothing in
	// the loop writes it.
	invariantReg := func(r ir.Reg) bool {
		_, renamed := rename[r]
		return renamed || defCount[r] == 0
	}
	renamed := renamer(rename)

	hoistedCount := 0
	kept := b.Instrs[:0]
	for i := range b.Instrs {
		in := b.Instrs[i]
		invariant := false
		switch in.Op {
		case ir.OpConst, ir.OpFuncRef, ir.OpBin, ir.OpNot, ir.OpNeg, ir.OpMove, ir.OpSelect:
			invariant = true
		case ir.OpLoadG:
			invariant = !storedGlobals[in.Global] && !hasCalls
		}
		in.Uses(func(r ir.Reg) { invariant = invariant && invariantReg(r) })
		d := in.Def()
		if !invariant || d == ir.NoReg {
			// Not hoisted: uses of renamed regs still see preheader copies.
			in.MapUses(renamed)
			if d != ir.NoReg {
				delete(rename, d)
				lastHoisted[d] = false
			}
			kept = append(kept, in)
			continue
		}
		ph := getPreheader()
		if ph == nil {
			in.MapUses(renamed)
			delete(rename, d)
			lastHoisted[d] = false
			kept = append(kept, in)
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
		lastHoisted[d] = true
		hoistedCount++
	}
	b.Instrs = append([]ir.Instr(nil), kept...)

	// Residual moves for hoisted values that are live out of the block.
	b.Term.Uses(func(r ir.Reg) {
		if nr, ok := rename[r]; ok && lastHoisted[r] {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: nr})
			delete(rename, r)
		}
	})
	// Ascending register order, not map order: the moves are independent,
	// but their order is the emitted instruction order.
	var residual []ir.Reg
	for r := range rename {
		if lastHoisted[r] && liveOutB.Has(int(r)) {
			residual = append(residual, r)
		}
	}
	sort.Slice(residual, func(i, j int) bool { return residual[i] < residual[j] })
	for _, r := range residual {
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: rename[r]})
	}
	return hoistedCount
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

// ensurePreheader returns (creating if needed) a block that is the unique
// non-latch predecessor of the loop header. Returns nil when the header's
// edges cannot be safely rewritten.
func ensurePreheader(f *ir.Function, loop *ir.Loop) *ir.Block {
	header := loop.Header
	f.RebuildCFG()
	var outside []*ir.Block
	for _, p := range header.Preds {
		if !loop.Blocks[p] {
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
