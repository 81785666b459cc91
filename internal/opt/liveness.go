package opt

import (
	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// liveOut computes every block's live-out register set by backward
// iteration to a fixed point. The result is indexed by block position in
// f.Blocks.
func liveOut(f *ir.Function) []analysis.BitSet {
	n := len(f.Blocks)
	// Block position by block ID, for following successor edges.
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	pos := make([]int, maxID+1)
	for i, b := range f.Blocks {
		pos[b.ID] = i
	}

	// Four tables of n sets each, carved from one allocation.
	words := (f.NRegs + 63) / 64
	slab := make(analysis.BitSet, 4*n*words)
	table := func() []analysis.BitSet {
		t := make([]analysis.BitSet, n)
		for i := range t {
			t[i], slab = slab[:words:words], slab[words:]
		}
		return t
	}
	in, out, use, def := table(), table(), table(), table()

	// use: read before any write in the block; def: written in the block.
	for i, b := range f.Blocks {
		u, d := use[i], def[i]
		upward := func(r ir.Reg) {
			if !d.Has(int(r)) {
				u.Set(int(r))
			}
		}
		for j := range b.Instrs {
			b.Instrs[j].Uses(upward)
			if dr := b.Instrs[j].Def(); dr != ir.NoReg {
				d.Set(int(dr))
			}
		}
		b.Term.Uses(upward)
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			o := out[i]
			for _, s := range f.Blocks[i].Term.Succs {
				if o.Union(in[pos[s.ID]]) {
					changed = true
				}
			}
			// in = use ∪ (out − def); in only ever grows.
			for w := range o {
				if nv := in[i][w] | use[i][w] | o[w]&^def[i][w]; nv != in[i][w] {
					in[i][w] = nv
					changed = true
				}
			}
		}
	}
	return out
}
