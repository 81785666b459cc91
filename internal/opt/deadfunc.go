package opt

import "csspgo/internal/ir"

// deadFuncPass drops whole functions; surviving bodies are untouched.
var deadFuncPass = registerPass("drop-dead-functions", flowPreserves, semStructural)

// dropDeadFunctions removes functions unreachable from main in the static
// call graph — after aggressive inlining, fully inlined callees have no
// remaining callers and their standalone bodies disappear from the binary
// (the code-size payoff the pre-inliner's binary-extracted sizes predict).
// Returns the number of functions dropped.
func dropDeadFunctions(p *ir.Program) int {
	reach := map[string]bool{"main": true}
	work := []string{"main"}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		f := p.Funcs[name]
		if f == nil {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				op := b.Instrs[i].Op
				// Function references keep their targets alive: an icall
				// may reach anything whose address was taken.
				if sym := b.Instrs[i].Sym(); (op == ir.OpCall || op == ir.OpFuncRef) && !reach[sym] {
					reach[sym] = true
					work = append(work, sym)
				}
			}
		}
	}
	var keep []string
	dropped := 0
	for _, name := range p.Order {
		if reach[name] {
			keep = append(keep, name)
			continue
		}
		if f := p.Funcs[name]; f != nil && f.NumProbes > 0 {
			if p.DroppedChecksums == nil {
				p.DroppedChecksums = map[string]uint64{}
			}
			p.DroppedChecksums[name] = f.Checksum
		}
		delete(p.Funcs, name)
		dropped++
	}
	p.Order = keep
	return dropped
}
