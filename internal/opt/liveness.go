package opt

import (
	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// liveness is the workspace of the backward live-register fixpoint: every
// block's live-in, live-out, use and def sets, by block position in
// f.Blocks. The build's workspace holds one, which serves every fixpoint
// of every function — DCE's iterations, LICM's loops, both DCE runs — so
// the tables are allocated again only when a function outgrows them, and a
// caller that changed a few blocks recomputes only their use/def. It stays
// a backward fixpoint in opt, not a solveForward problem.
type liveness struct {
	n     int     // blocks
	words int     // 64-bit words per set
	pos   []int32 // block position by block ID, for following successor edges
	// slab holds the four tables, n sets each, then one more set of the
	// same width for the caller's walk through a block (scratch).
	slab analysis.BitSet
}

// The tables, in slab order.
const (
	liveIn = iota
	liveOut
	liveUse
	liveDef
	liveTables
)

// set returns the set of the block at position i in the given table.
func (lv *liveness) set(table, i int) analysis.BitSet {
	at := (table*lv.n + i) * lv.words
	return lv.slab[at : at+lv.words : at+lv.words]
}

// out returns the live-out set of the block at position i, as of the last
// solve.
func (lv *liveness) out(i int) analysis.BitSet { return lv.set(liveOut, i) }

// scratch returns the spare set.
func (lv *liveness) scratch() analysis.BitSet { return lv.set(liveTables, 0) }

// reset sizes the workspace for f as it stands and computes every block's
// use and def.
func (lv *liveness) reset(f *ir.Function) {
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	if maxID >= cap(lv.pos) {
		lv.pos = make([]int32, maxID+1)
	}
	lv.pos = lv.pos[:maxID+1]
	for i, b := range f.Blocks {
		lv.pos[b.ID] = int32(i)
	}

	// One allocation: exactly what f needs the first time, a quarter more
	// when f has outgrown it (LICM adds a block and a few registers per
	// loop).
	lv.n, lv.words = len(f.Blocks), (f.NRegs+63)/64
	need := (liveTables*lv.n + 1) * lv.words
	if need > cap(lv.slab) {
		if lv.slab == nil {
			lv.slab = make(analysis.BitSet, need)
		} else {
			lv.slab = make(analysis.BitSet, need+need/4)
		}
	}
	lv.slab = lv.slab[:need]
	for i, b := range f.Blocks {
		lv.useDef(i, b)
	}
}

// useDef recomputes the use and def sets of b, the block at position i —
// use: read before any write in the block; def: written in the block.
func (lv *liveness) useDef(i int, b *ir.Block) {
	u, d := lv.set(liveUse, i), lv.set(liveDef, i)
	clear(u)
	clear(d)
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

// solve computes every block's live-out register set from the use/def sets
// as they stand, by backward iteration from empty sets to the least fixed
// point. f must have the blocks and edges it had at reset.
func (lv *liveness) solve(f *ir.Function) {
	clear(lv.slab[:liveUse*lv.n*lv.words]) // the in and out tables
	for changed := true; changed; {
		changed = false
		for i := lv.n - 1; i >= 0; i-- {
			o, in, use, def := lv.out(i), lv.set(liveIn, i), lv.set(liveUse, i), lv.set(liveDef, i)
			for _, s := range f.Blocks[i].Term.Succs {
				if o.Union(lv.set(liveIn, int(lv.pos[s.ID]))) {
					changed = true
				}
			}
			// in = use ∪ (out − def); in only ever grows.
			for w := range o {
				if nv := in[w] | use[w] | o[w]&^def[w]; nv != in[w] {
					in[w] = nv
					changed = true
				}
			}
		}
	}
}
