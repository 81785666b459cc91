package opt

import "csspgo/internal/ir"

// tcePass only flags calls as tail calls; the CFG is untouched.
var tcePass = registerPass("tce", flowPreserves, semStructural)

// tce marks tail calls: a call whose result immediately feeds the block's
// return becomes a frame-reusing transfer. Tail-call elimination is the
// optimization that breaks frame-pointer stack sampling (the returning
// function's caller frame disappears), exercising the profiler's
// missing-frame inferrer. Returns the number of calls marked.
func tce(f *ir.Function) int {
	marked := 0
	for _, b := range f.Blocks {
		if b.Term.Kind != ir.TermReturn || len(b.Instrs) == 0 {
			continue
		}
		last := &b.Instrs[len(b.Instrs)-1]
		if last.Op != ir.OpCall || last.TailCall {
			continue
		}
		if last.Dst == ir.NoReg || b.Term.Val != last.Dst {
			continue
		}
		last.TailCall = true
		marked++
	}
	return marked
}
