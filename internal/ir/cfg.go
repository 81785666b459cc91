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
	var s ReachScratch
	return f.ReachableOrderIn(&s)
}

// ReachScratch is the storage of ReachableOrderIn: the visited marks, the
// walk's stack and the order it returns. A caller that orders many
// functions keeps one and lets it grow to the largest.
type ReachScratch struct {
	seen  []bool
	stack []reachFrame
	order []*Block
}

type reachFrame struct {
	b    *Block
	next int // the successor to descend into next
}

// ReachableOrderIn is ReachableOrder in s's storage. The result is valid
// until s is used again.
func (f *Function) ReachableOrderIn(s *ReachScratch) []*Block {
	n := f.maxBlockID() + 1
	seen := slices.Grow(s.seen[:0], n)[:n]
	clear(seen)
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
	stack := append(slices.Grow(s.stack[:0], len(f.Blocks)), reachFrame{b: f.Entry()})
	visit(f.Entry())
	post := slices.Grow(s.order[:0], len(f.Blocks))
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if succs := top.b.Term.Succs; top.next < len(succs) {
			succ := succs[top.next]
			top.next++
			if visit(succ) {
				stack = append(stack, reachFrame{b: succ})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(post)
	s.seen, s.stack, s.order = seen, stack, post
	return post
}

// RemoveUnreachable drops blocks not reachable from entry and rebuilds the
// CFG. It returns the number of blocks removed. The survivors are put in
// reverse post-order; when nothing is dropped the blocks keep their order,
// and a walk that only counts finds that out without building one.
func (f *Function) RemoveUnreachable() int {
	removed := len(f.Blocks) - f.countReachable()
	if removed > 0 {
		f.Blocks = f.ReachableOrder()
	}
	f.RebuildCFG()
	return removed
}

// countReachable returns how many blocks ReachableOrder would return: the
// blocks a walk from entry marks, in a table by block ID. Its table and
// stack live in the frame up to a size most functions stay under.
func (f *Function) countReachable() int {
	var seenBuf [256]bool
	var stackBuf [64]*Block
	n := f.maxBlockID() + 1
	seen := seenBuf[:0]
	if n <= len(seenBuf) {
		seen = seenBuf[:n]
	} else {
		seen = make([]bool, n)
	}
	stack := append(stackBuf[:0], f.Entry())
	seen[f.Entry().ID] = true
	count := 1
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Term.Succs {
			// The table grows for a block the function does not hold
			// (Verify's business), as in ReachableOrderIn.
			if s.ID >= len(seen) {
				seen = append(seen, make([]bool, s.ID+1-len(seen))...)
			}
			if !seen[s.ID] {
				seen[s.ID] = true
				count++
				stack = append(stack, s)
			}
		}
	}
	return count
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

// domScratch is the storage of domTreeIn: the reverse post-order walk, the
// tree's tables and the tree itself. A caller that builds the trees of many
// functions keeps one and lets it grow to the largest.
type domScratch struct {
	reach ReachScratch
	slab  []int32
	tree  DomTree
}

// DomTree builds the dominator tree with the iterative
// Cooper-Harvey-Kennedy algorithm over reverse post-order positions. It
// rebuilds Preds first (RebuildCFG), so it is valid on a function whose
// successor edges were just rewritten.
func (f *Function) DomTree() *DomTree { return f.domTreeIn(new(domScratch)) }

// domTreeIn is DomTree in s's storage. The tree is valid until s is used
// again.
func (f *Function) domTreeIn(s *domScratch) *DomTree {
	f.RebuildCFG()
	rpo := f.ReachableOrderIn(&s.reach)
	// Six tables of int32 carved from one slab: three by block ID (the
	// first two are the tree's own), three by reverse post-order position.
	nID, n := f.maxBlockID()+1, len(rpo)
	slab := slices.Grow(s.slab[:0], 3*nID+3*n)[:3*nID+3*n]
	s.slab = slab
	clear(slab)
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
	t := &s.tree
	byID := slices.Grow(t.idom[:0], nID)[:nID]
	clear(byID)
	*t = DomTree{rpo: rpo, idom: byID, pre: pre, end: end}
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

// Loop describes a natural loop: its header, its member blocks and the
// back-edge sources (latches).
type Loop struct {
	Header *Block
	// Blocks are the members, the header first, in the order the walk up
	// from the latches found them.
	Blocks  []*Block
	Latches []*Block
	member  []uint64 // a bit per block ID
}

// Contains reports whether b is one of the loop's blocks. A block added to
// the function after NaturalLoops is in no loop.
func (l *Loop) Contains(b *Block) bool {
	w := b.ID / 64
	return w < len(l.member) && l.member[w]&(1<<(b.ID%64)) != 0
}

// LoopScratch is the storage of NaturalLoopsIn: the dominator tree's, the
// back edges, and every loop's blocks and membership set. A caller that
// finds the loops of many functions keeps one and lets it grow to the
// largest.
type LoopScratch struct {
	dom    domScratch
	edges  []backEdge
	loops  []Loop
	out    []*Loop
	blocks []*Block // every loop's members, then its latches
	member []uint64 // every loop's membership set
	stack  []*Block
}

// backEdge is an edge latch → header whose header dominates its latch.
type backEdge struct{ header, latch *Block }

// NaturalLoops finds all natural loops via dominance + back edges. Loops
// sharing a header are merged. Results are ordered by header block ID. The
// dominator tree it built is returned with them, for callers that go on to
// ask dominance questions about the loops.
func (f *Function) NaturalLoops() ([]*Loop, *DomTree) { return f.NaturalLoopsIn(new(LoopScratch)) }

// NaturalLoopsIn is NaturalLoops in s's storage. The loops and the tree are
// valid until s is used again.
func (f *Function) NaturalLoopsIn(s *LoopScratch) ([]*Loop, *DomTree) {
	dt := f.domTreeIn(&s.dom)
	edges := s.edges[:0]
	for _, b := range dt.rpo {
		for _, h := range b.Term.Succs {
			if dt.Dominates(h, b) {
				edges = append(edges, backEdge{header: h, latch: b})
			}
		}
	}
	// By header ID; a header's latches stay in reverse post-order.
	slices.SortStableFunc(edges, func(a, b backEdge) int { return a.header.ID - b.header.ID })
	s.edges = edges
	nLoops := 0
	for i, e := range edges {
		if i == 0 || e.header != edges[i-1].header {
			nLoops++
		}
	}
	words := (len(dt.idom) + 63) / 64
	member := slices.Grow(s.member[:0], nLoops*words)[:nLoops*words]
	clear(member)
	loops := slices.Grow(s.loops[:0], nLoops)[:nLoops]
	out := slices.Grow(s.out[:0], nLoops)[:nLoops]
	// Every loop's members and latches go on one slice. A loop keeps a
	// capped slice of it, which stays right when an append moves the rest.
	blocks, stack := s.blocks[:0], s.stack
	for k, i := 0, 0; i < len(edges); k++ {
		h := edges[i].header
		set := member[k*words : (k+1)*words : (k+1)*words]
		mark := func(b *Block) bool {
			if set[b.ID/64]&(1<<(b.ID%64)) != 0 {
				return false
			}
			set[b.ID/64] |= 1 << (b.ID % 64)
			blocks = append(blocks, b)
			return true
		}
		first := len(blocks)
		mark(h)
		j := i
		for ; j < len(edges) && edges[j].header == h; j++ {
			// Walk predecessors from the latch up to the header.
			stack = append(stack[:0], edges[j].latch)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if mark(n) {
					stack = append(stack, n.Preds...)
				}
			}
		}
		latches := len(blocks)
		for _, e := range edges[i:j] {
			blocks = append(blocks, e.latch)
		}
		loops[k] = Loop{
			Header:  h,
			Blocks:  blocks[first:latches:latches],
			Latches: blocks[latches:len(blocks):len(blocks)],
			member:  set,
		}
		out[k] = &loops[k]
		i = j
	}
	s.member, s.loops, s.out, s.blocks, s.stack = member, loops, out, blocks, stack
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
