package opt

import "csspgo/internal/ir"

// split marks cold blocks of profiled functions for the cold section at
// the end of the text segment, improving i-cache density of the hot path
// (the function-splitting optimization the paper enables for all PGO
// variants). A block is cold when its weight falls below 0.2% of the
// function's entry count — zero-sampled blocks always qualify, and exact
// (instrumentation) profiles split genuinely rare blocks the same way.
// Returns blocks marked.
func split(f *ir.Function) int {
	anyHot := false
	for _, b := range f.Blocks {
		if b.HasWeight && b.Weight > 0 {
			anyHot = true
			break
		}
	}
	if !anyHot {
		return 0
	}
	n := 0
	for _, b := range f.Blocks {
		if b == f.Entry() || !b.HasWeight || b.Cold {
			continue
		}
		cold := b.Weight == 0 || f.EntryCount > 0 && b.Weight*500 < f.EntryCount
		if !cold {
			continue
		}
		b.Cold = true
		n++
	}
	return n
}

// splitPass only re-sections and reorders blocks; weights are untouched.
var splitPass = registerPass("split", flowPreserves, semStructural)

// splitProgram splits every function; returns total blocks marked cold.
func splitProgram(p *ir.Program) int {
	n := 0
	for _, f := range p.Functions() {
		n += split(f)
	}
	return n
}
