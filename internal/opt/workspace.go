package opt

import (
	"slices"

	"csspgo/internal/inference"
	"csspgo/internal/ir"
)

// workspace is the storage one Optimize call lends every pass it runs: the
// tables a per-function analysis would otherwise allocate again for every
// function. Each table grows to the largest function of the build. Optimize
// makes one when it starts and drops it when it returns, so nothing in it
// is shared between builds, which may run at once on other goroutines.
type workspace struct {
	lv     liveness            // both DCE runs and LICM, one slab of sets
	hoist  hoister             // LICM's register tables
	loops  ir.LoopScratch      // LICM's and unroll's loops and dominator tree
	infer  inference.Workspace // both inference passes
	calls  ir.CallGraphScratch // the inliners' SCC tables
	chains layoutScratch
	tails  tailScratch
	ifc    ifcScratch // if-conversion's renamings and select destinations
	pos    []int32    // block position by block ID, for layout and tail merging
	marked []bool     // blocks simplify-cfg or if-convert removed, by block ID
}

// positions returns a table of every block's position in f.Blocks by block
// ID, -1 for an ID no block of f has. It is valid until the next call.
func (ws *workspace) positions(f *ir.Function) []int32 {
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	pos := slices.Grow(ws.pos[:0], n)[:n]
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range f.Blocks {
		pos[b.ID] = int32(i)
	}
	ws.pos = pos
	return pos
}

// position looks b up in a positions table: -1 when b is not one of the
// function's blocks.
func position(pos []int32, b *ir.Block) int32 {
	if b.ID >= len(pos) {
		return -1
	}
	return pos[b.ID]
}

// markRemoved turns b into an empty return, which no sweep picks up, and
// marks it for dropMarked.
func (ws *workspace) markRemoved(b *ir.Block) {
	b.Instrs, b.Term = nil, ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	if n := b.ID + 1; n > len(ws.marked) {
		ws.marked = slices.Grow(ws.marked, n-len(ws.marked))[:n]
	}
	ws.marked[b.ID] = true
}

// dropMarked drops the marked blocks from f.Blocks, keeping the order of the
// rest, and clears the marks.
func (ws *workspace) dropMarked(f *ir.Function) {
	f.Blocks = slices.DeleteFunc(f.Blocks, func(b *ir.Block) bool {
		return b.ID < len(ws.marked) && ws.marked[b.ID]
	})
	clear(ws.marked)
}
