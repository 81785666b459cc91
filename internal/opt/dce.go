package opt

import "csspgo/internal/ir"

// dcePass removes only pure unused instructions — the CFG, block weights and
// edge weights are untouched, so flow conservation is preserved.
var dcePass = registerPass("dce", flowPreserves, semStructural)

// dce removes pure instructions whose results are never used, iterating to
// a fixed point. Probes, counters, stores and calls are never removed.
// Returns the number of instructions deleted.
//
// Each iteration deletes what plain liveness calls dead and solves again —
// not one solve of strong liveness, which also deletes dead cycles through
// loops and would change the emitted code. One workspace serves every
// iteration, only a block that lost an instruction has its use/def taken
// again, and only such a block is compacted, in place.
func (ws *workspace) dce(f *ir.Function) int {
	lv := &ws.lv
	lv.reset(f)
	live := lv.scratch()
	markLive := func(r ir.Reg) { live.Set(int(r)) }
	removed := 0
	for {
		lv.solve(f)
		changed := false
		for bi, b := range f.Blocks {
			copy(live, lv.out(bi))
			b.Term.Uses(markLive)
			// Walk backwards, sliding the instructions that stay towards
			// the end of the slice over the dead pure defs.
			n := len(b.Instrs)
			w := n
			for i := n - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				d := in.Def()
				if !in.HasSideEffects() && d != ir.NoReg && !live.Has(int(d)) {
					continue
				}
				if d != ir.NoReg {
					live.Clear(int(d))
				}
				in.Uses(markLive)
				if w--; w != i {
					b.Instrs[w] = *in
				}
			}
			if w == 0 {
				continue // nothing died: the block keeps its slice as it is
			}
			b.Instrs = truncate(b.Instrs, copy(b.Instrs, b.Instrs[w:]))
			removed += w
			changed = true
			lv.useDef(bi, b)
		}
		if !changed {
			return removed
		}
	}
}

// truncate shortens a block's instruction slice to its first n in place and
// zeroes the vacated tail, so that the Args, Probe and Loc of the dropped
// instructions are collectable while the block lives.
func truncate(instrs []ir.Instr, n int) []ir.Instr {
	clear(instrs[n:])
	return instrs[:n]
}
