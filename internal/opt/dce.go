package opt

import "csspgo/internal/ir"

// dcePass removes only pure unused instructions — the CFG, block weights and
// edge weights are untouched, so flow conservation is preserved.
var dcePass = registerPass("dce", flowPreserves, semStructural)

// DCE removes pure instructions whose results are never used, iterating to
// a fixed point. Probes, counters, stores and calls are never removed.
// Returns the number of instructions deleted.
func DCE(f *ir.Function) int {
	removed := 0
	for {
		out := liveOut(f)
		changed := false
		for bi, b := range f.Blocks {
			live := out[bi].Clone()
			markLive := func(r ir.Reg) { live.Set(int(r)) }
			b.Term.Uses(markLive)
			// Walk backwards, deleting dead pure defs.
			kept := b.Instrs[:0]
			// Collect deletions first (backward), then rebuild forward.
			dead := make([]bool, len(b.Instrs))
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				d := in.Def()
				if !in.HasSideEffects() && d != ir.NoReg && !live.Has(int(d)) {
					dead[i] = true
					continue
				}
				if d != ir.NoReg {
					live.Clear(int(d))
				}
				in.Uses(markLive)
			}
			for i := range b.Instrs {
				if dead[i] {
					removed++
					changed = true
					continue
				}
				kept = append(kept, b.Instrs[i])
			}
			b.Instrs = append([]ir.Instr(nil), kept...)
		}
		if !changed {
			return removed
		}
	}
}
