package analysis

import (
	"fmt"

	"csspgo/internal/ir"
)

// defSite is one definition of a register: instruction Index within Block.
// Function parameters are pseudo-sites with Block == nil.
type defSite struct {
	Reg   ir.Reg
	Block *ir.Block
	Index int
}

// reachingDefs computes, per reachable block, which definition sites may
// reach the block entry (classic may-reach union dataflow). The returned
// sites slice gives the bit ↔ definition-site mapping.
func reachingDefs(f *ir.Function) (in map[*ir.Block]BitSet, sites []defSite) {
	defsOf := make(map[ir.Reg][]int, f.NRegs) // register -> site bits
	for i := range f.Params {
		defsOf[ir.Reg(i)] = append(defsOf[ir.Reg(i)], len(sites))
		sites = append(sites, defSite{Reg: ir.Reg(i), Index: -1})
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defsOf[d] = append(defsOf[d], len(sites))
				sites = append(sites, defSite{Reg: d, Block: b, Index: i})
			}
		}
	}

	entry := NewBitSet(len(sites))
	for i := range f.Params {
		entry.Set(i)
	}
	prob := forwardProblem{
		Bits:  len(sites),
		Meet:  meetUnion,
		Entry: entry,
		Transfer: func(b *ir.Block, in, out BitSet) {
			copy(out, in)
			for i := range b.Instrs {
				d := b.Instrs[i].Def()
				if d == ir.NoReg {
					continue
				}
				// Kill every other def of the register, gen this site.
				for _, s := range defsOf[d] {
					if sites[s].Block == b && sites[s].Index == i {
						out.Set(s)
					} else {
						out.Clear(s)
					}
				}
			}
		},
	}
	return solveForward(f, prob), sites
}

// checkUseBeforeDef lints register uses that happen before any definition,
// powered by reaching definitions (may-reach) and definite assignment
// (must-reach). A use with *no* reaching definition is an error — the value
// read is garbage on every path. A use that some definition reaches but
// that is not definitely assigned is a warning: the IR is non-SSA and a
// pass may know the guarding condition, but it is the classic shape of a
// broken clone or hoist.
func checkUseBeforeDef(f *ir.Function) []Diagnostic {
	nregs := f.NRegs
	if nregs == 0 {
		return nil
	}

	reachIn, sites := reachingDefs(f)

	// Definite assignment: must-analysis directly over registers.
	entry := NewBitSet(nregs)
	for i := range f.Params {
		entry.Set(i)
	}
	defIn := solveForward(f, forwardProblem{
		Bits:  nregs,
		Meet:  meetIntersect,
		Entry: entry,
		Transfer: func(b *ir.Block, in, out BitSet) {
			copy(out, in)
			for i := range b.Instrs {
				if d := b.Instrs[i].Def(); d != ir.NoReg {
					out.Set(int(d))
				}
			}
		},
	})

	var diags []Diagnostic
	reported := map[ir.Reg]bool{} // one finding per register keeps output readable
	for _, b := range f.ReachableOrder() {
		must := defIn[b].Clone()
		may := NewBitSet(nregs) // registers with at least one reaching def here
		for s := range sites {
			if reachIn[b].Has(s) {
				may.Set(int(sites[s].Reg))
			}
		}
		report := func(where string) func(ir.Reg) {
			return func(r ir.Reg) {
				if int(r) >= nregs || must.Has(int(r)) || reported[r] {
					return
				}
				reported[r] = true
				d := Diagnostic{Check: "use-before-def", Func: f.Name, Block: b.ID}
				if !may.Has(int(r)) {
					d.Sev = SevError
					d.Msg = fmt.Sprintf("register %%%d is read %s but no definition reaches it", r, where)
				} else {
					d.Sev = SevWarning
					d.Msg = fmt.Sprintf("register %%%d may be read %s before it is assigned on some path", r, where)
				}
				diags = append(diags, d)
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.Uses(report(fmt.Sprintf("by %q", in.String())))
			if d := in.Def(); d != ir.NoReg {
				must.Set(int(d))
				may.Set(int(d))
			}
		}
		b.Term.Uses(report("by the terminator"))
	}
	return diags
}

// checkUnreachable reports blocks with no dominator-tree node, i.e. not
// reachable from entry. Passes create these transiently and clean them up
// with RemoveUnreachable, so the finding is a warning, not an error.
func checkUnreachable(f *ir.Function, dt *ir.DomTree) []Diagnostic {
	var diags []Diagnostic
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			diags = append(diags, Diagnostic{
				Sev: SevWarning, Check: "unreachable", Func: f.Name, Block: b.ID,
				Msg: "block is unreachable from entry (dead until RemoveUnreachable runs)",
			})
		}
	}
	return diags
}
