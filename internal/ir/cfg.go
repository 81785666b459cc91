package ir

import "slices"

// RebuildCFG recomputes predecessor lists from terminators. Passes that
// mutate successor edges must call this before relying on Preds.
func (f *Function) RebuildCFG() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	// The lists as they are usually have the room: nothing is allocated.
	edges, fits := 0, true
	for _, b := range f.Blocks {
		edges += len(b.Term.Succs)
		for _, s := range b.Term.Succs {
			if len(s.Preds) == cap(s.Preds) {
				fits = false
				continue
			}
			s.Preds = append(s.Preds, b)
		}
	}
	if fits {
		return
	}
	// One did not: count in-degrees by block ID and carve every block's
	// list from one slab. The counts only size the lists — what fills them
	// is append, in the same edge order as above, so a successor the
	// function does not hold (Verify's business) just grows its own.
	deg := make([]int32, f.maxBlockID()+1)
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs {
			if s.ID >= 0 && s.ID < len(deg) {
				deg[s.ID]++
			}
		}
	}
	slab := make([]*Block, edges)
	for _, b := range f.Blocks {
		n := min(int(deg[b.ID]), len(slab))
		b.Preds, slab = slab[:0:n], slab[n:]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// maxBlockID returns the largest ID among the function's blocks: the size,
// less one, of a table indexed by block ID.
func (f *Function) maxBlockID() int {
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	return maxID
}

// ReachableOrder returns the blocks reachable from entry in reverse
// post-order (a topological-ish order suitable for forward dataflow): a
// depth-first walk that takes successors in terminator order, on an
// explicit stack, with the visited marks in a table by block ID.
func (f *Function) ReachableOrder() []*Block {
	seen := make([]bool, f.maxBlockID()+1)
	// visit marks b and reports whether it was unmarked. The table grows
	// for a block the function does not hold (Verify's business).
	visit := func(b *Block) bool {
		if b.ID >= len(seen) {
			seen = append(seen, make([]bool, b.ID+1-len(seen))...)
		}
		if seen[b.ID] {
			return false
		}
		seen[b.ID] = true
		return true
	}
	type frame struct {
		b    *Block
		next int // the successor to descend into next
	}
	stack := make([]frame, 1, len(f.Blocks))
	stack[0].b = f.Entry()
	visit(f.Entry())
	post := make([]*Block, 0, len(f.Blocks))
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if succs := top.b.Term.Succs; top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if visit(s) {
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(post)
	return post
}

// RemoveUnreachable drops blocks not reachable from entry and rebuilds the
// CFG. It returns the number of blocks removed.
func (f *Function) RemoveUnreachable() int {
	rpo := f.ReachableOrder()
	removed := len(f.Blocks) - len(rpo)
	if removed > 0 {
		f.Blocks = rpo
	}
	f.RebuildCFG()
	return removed
}

// DomTree is the dominator tree of a function's reachable CFG as of the
// DomTree call that built it: the immediate-dominator table plus an
// interval numbering that answers Dominates in O(1). Tables are indexed by
// block ID; a block added to the function later is simply not in the tree.
type DomTree struct {
	rpo  []*Block // reachable blocks in reverse post-order
	idom []*Block // by block ID; nil = unreachable, entry = itself
	// pre is the block's number in a pre-order walk of the tree and end the
	// number after its last descendant: a dominates b iff pre[b] is in
	// [pre[a], end[a]).
	pre, end []int32
}

// DomTree builds the dominator tree with the iterative
// Cooper-Harvey-Kennedy algorithm over reverse post-order positions. It
// rebuilds Preds first (RebuildCFG), so it is valid on a function whose
// successor edges were just rewritten.
func (f *Function) DomTree() *DomTree {
	f.RebuildCFG()
	rpo := f.ReachableOrder()
	// Six tables of int32 carved from one allocation: three by block ID
	// (the first two are the tree's own), three by reverse post-order
	// position.
	nID, n := f.maxBlockID()+1, len(rpo)
	slab := make([]int32, 3*nID+3*n)
	carve := func(n int) []int32 {
		t := slab[:n:n]
		slab = slab[n:]
		return t
	}
	pre, end, pos := carve(nID), carve(nID), carve(nID)
	idom, size, free := carve(n), carve(n), carve(n)
	// Reverse post-order position by block ID; -1 = unreachable.
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range rpo {
		pos[b.ID] = int32(i)
	}

	// idom by RPO position; -1 = not computed yet.
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(rpo); i++ {
			next := int32(-1)
			for _, p := range rpo[i].Preds {
				pi := pos[p.ID]
				if pi < 0 || idom[pi] < 0 {
					continue
				}
				if next < 0 {
					next = pi
				} else {
					next = intersect(next, pi)
				}
			}
			if next >= 0 && idom[i] != next {
				idom[i] = next
				changed = true
			}
		}
	}

	// A dominator precedes what it dominates in reverse post-order, so one
	// backward sweep sums subtree sizes and one forward sweep hands every
	// block the next free pre-order slot of its parent's interval.
	for i := len(rpo) - 1; i >= 0; i-- {
		size[i]++
		if i > 0 {
			size[idom[i]] += size[i]
		}
	}
	t := &DomTree{rpo: rpo, idom: make([]*Block, nID), pre: pre, end: end}
	// free[i] is the next unassigned slot inside i's interval.
	for i, b := range rpo {
		var pre int32
		if i > 0 {
			pre = free[idom[i]]
			free[idom[i]] += size[i]
		}
		free[i] = pre + 1
		t.idom[b.ID] = rpo[idom[i]]
		t.pre[b.ID], t.end[b.ID] = pre, pre+size[i]
	}
	return t
}

// Reachable reports whether b was reachable from entry when the tree was
// built.
func (t *DomTree) Reachable(b *Block) bool {
	return b.ID < len(t.idom) && t.idom[b.ID] != nil
}

// Dominates reports whether a dominates b (reflexively). Blocks outside
// the tree dominate nothing and are dominated by nothing.
func (t *DomTree) Dominates(a, b *Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	return t.pre[a.ID] <= t.pre[b.ID] && t.pre[b.ID] < t.end[a.ID]
}

// Loop describes a natural loop: its header, the set of member blocks, and
// the back-edge sources (latches).
type Loop struct {
	Header  *Block
	Blocks  map[*Block]bool
	Latches []*Block
}

func sortBlocksByID(bs []*Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].ID < bs[j-1].ID; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// NaturalLoops finds all natural loops via dominance + back edges. Loops
// sharing a header are merged. Results are ordered by header block ID. The
// dominator tree it built is returned with them, for callers that go on to
// ask dominance questions about the loops.
func (f *Function) NaturalLoops() ([]*Loop, *DomTree) {
	dt := f.DomTree()
	byHeader := map[*Block]*Loop{}
	var headers []*Block
	for _, b := range dt.rpo {
		for _, s := range b.Term.Succs {
			if !dt.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
				byHeader[s] = l
				headers = append(headers, s)
			}
			l.Latches = append(l.Latches, b)
			// Walk predecessors from the latch up to the header.
			stack := []*Block{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[n] {
					continue
				}
				l.Blocks[n] = true
				stack = append(stack, n.Preds...)
			}
		}
	}
	sortBlocksByID(headers)
	out := make([]*Loop, 0, len(headers))
	for _, h := range headers {
		out = append(out, byHeader[h])
	}
	return out, dt
}

// ReplaceSucc rewrites every successor edge of b that points at old to
// point at new instead.
func (b *Block) ReplaceSucc(old, new *Block) {
	for i, s := range b.Term.Succs {
		if s == old {
			b.Term.Succs[i] = new
		}
	}
}

// EnsureEdgeWeights makes EdgeW parallel to Succs, zero-filling.
func (t *Terminator) EnsureEdgeWeights() {
	if len(t.EdgeW) != len(t.Succs) {
		w := make([]uint64, len(t.Succs))
		copy(w, t.EdgeW)
		t.EdgeW = w
	}
}
