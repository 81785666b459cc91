package opt

import (
	"sort"

	"csspgo/internal/ir"
)

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
// licmPass may materialize preheader blocks without profile weights.
var licmPass = registerPass("licm", flowPerturbs, semRestructures)

func LICM(f *ir.Function) int {
	hoisted := 0
	for _, loop := range f.NaturalLoops() {
		hoisted += licmLoop(f, loop)
	}
	if hoisted > 0 {
		f.RebuildCFG()
	}
	return hoisted
}

func licmLoop(f *ir.Function, loop *ir.Loop) int {
	idom := f.Dominators()

	// Registers defined anywhere in the loop.
	defCount := map[ir.Reg]int{}
	for b := range loop.Blocks {
		for i := range b.Instrs {
			if d := def(&b.Instrs[i]); d >= 0 {
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
			if !ir.Dominates(idom, b, l) {
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
	for _, b := range f.Blocks {
		if !loop.Blocks[b] || !dominatesAllLatches(b) {
			continue
		}
		hoisted += licmBlock(f, loop, b, defCount, storedGlobals, hasCalls, getPreheader, liveouts[b])
	}
	return hoisted
}

// licmBlock hoists invariant chains out of one always-executed loop block.
func licmBlock(f *ir.Function, loop *ir.Loop, b *ir.Block,
	defCount map[ir.Reg]int, storedGlobals map[string]bool, hasCalls bool,
	getPreheader func() *ir.Block, liveOutB regSet) int {

	// rename maps a register to its hoisted preheader copy, valid until the
	// register's next non-hoisted definition in this block.
	rename := map[ir.Reg]ir.Reg{}
	// lastHoisted tracks, per register, whether its most recent def in this
	// block was hoisted (to decide on a residual move at the end).
	lastHoisted := map[ir.Reg]bool{}

	invariantOperand := func(r ir.Reg) bool {
		if r == ir.NoReg {
			return true
		}
		if _, ok := rename[r]; ok {
			return true
		}
		return defCount[r] == 0
	}

	hoistedCount := 0
	kept := b.Instrs[:0]
	for i := range b.Instrs {
		in := b.Instrs[i]
		invariant := false
		switch in.Op {
		case ir.OpConst, ir.OpFuncRef:
			invariant = true
		case ir.OpBin, ir.OpNot, ir.OpNeg, ir.OpMove, ir.OpSelect:
			invariant = invariantOperand(in.A) && invariantOperand(in.B) && invariantOperand(in.C)
			if in.Op != ir.OpBin && in.Op != ir.OpSelect {
				invariant = invariantOperand(in.A)
			}
			if in.Op == ir.OpBin {
				invariant = invariantOperand(in.A) && invariantOperand(in.B)
			}
		case ir.OpLoadG:
			invariant = !storedGlobals[in.Global] && !hasCalls && invariantOperand(in.Index)
		}
		d := def(&in)
		if !invariant || d < 0 {
			// Not hoisted: uses of renamed regs still see preheader copies.
			remapUses(&in, rename)
			if d >= 0 {
				delete(rename, d)
				lastHoisted[d] = false
			}
			kept = append(kept, in)
			continue
		}
		ph := getPreheader()
		if ph == nil {
			remapUses(&in, rename)
			delete(rename, d)
			lastHoisted[d] = false
			kept = append(kept, in)
			continue
		}
		// Hoist a renamed clone; keep the original Loc (code motion keeps
		// the source line — the correlation hazard).
		clone := in.Clone()
		remapUses(&clone, rename)
		nr := f.NewReg()
		clone.Dst = nr
		ph.Instrs = append(ph.Instrs, clone)
		rename[d] = nr
		lastHoisted[d] = true
		hoistedCount++
	}
	b.Instrs = append([]ir.Instr(nil), kept...)

	// Residual moves for hoisted values that are live out of the block.
	termUses(&b.Term, func(r ir.Reg) {
		if nr, ok := rename[r]; ok && lastHoisted[r] {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: nr})
			delete(rename, r)
		}
	})
	// Ascending register order, not map order: the moves are independent,
	// but their order is the emitted instruction order.
	var residual []ir.Reg
	for r := range rename {
		if lastHoisted[r] && liveOutB.has(r) {
			residual = append(residual, r)
		}
	}
	sort.Slice(residual, func(i, j int) bool { return residual[i] < residual[j] })
	for _, r := range residual {
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: rename[r]})
	}
	return hoistedCount
}

func remapUses(in *ir.Instr, rename map[ir.Reg]ir.Reg) {
	get := func(r ir.Reg) ir.Reg {
		if nr, ok := rename[r]; ok {
			return nr
		}
		return r
	}
	switch in.Op {
	case ir.OpBin:
		in.A, in.B = get(in.A), get(in.B)
	case ir.OpNot, ir.OpNeg, ir.OpMove:
		in.A = get(in.A)
	case ir.OpSelect:
		in.A, in.B, in.C = get(in.A), get(in.B), get(in.C)
	case ir.OpLoadG:
		if in.Index != ir.NoReg {
			in.Index = get(in.Index)
		}
	case ir.OpStoreG:
		in.A = get(in.A)
		if in.Index != ir.NoReg {
			in.Index = get(in.Index)
		}
	case ir.OpCall:
		for i := range in.Args {
			in.Args[i] = get(in.Args[i])
		}
	case ir.OpICall:
		in.A = get(in.A)
		for i := range in.Args {
			in.Args[i] = get(in.Args[i])
		}
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
