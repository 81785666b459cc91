package ir

// RebuildCFG recomputes predecessor lists from terminators. Passes that
// mutate successor edges must call this before relying on Preds.
func (f *Function) RebuildCFG() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// ReachableOrder returns the blocks reachable from entry in reverse
// post-order (a topological-ish order suitable for forward dataflow).
func (f *Function) ReachableOrder() []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Term.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// RemoveUnreachable drops blocks not reachable from entry and rebuilds the
// CFG. It returns the number of blocks removed.
func (f *Function) RemoveUnreachable() int {
	rpo := f.ReachableOrder()
	if len(rpo) == len(f.Blocks) {
		f.RebuildCFG()
		return 0
	}
	keep := make(map[*Block]bool, len(rpo))
	for _, b := range rpo {
		keep[b] = true
	}
	removed := len(f.Blocks) - len(rpo)
	f.Blocks = rpo
	f.RebuildCFG()
	return removed
}

// Dominators computes the immediate-dominator relation using the classic
// iterative Cooper-Harvey-Kennedy algorithm. The returned map gives each
// reachable block's immediate dominator; the entry maps to itself.
func (f *Function) Dominators() map[*Block]*Block {
	rpo := f.ReachableOrder()
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	f.RebuildCFG()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if _, ok := idom[p]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom == nil {
				continue
			}
			if idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the given idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return a == b
		}
		b = next
	}
}

// Loop describes a natural loop: its header, the set of member blocks, and
// the back-edge sources (latches).
type Loop struct {
	Header  *Block
	Blocks  map[*Block]bool
	Latches []*Block
}

// Exits returns the blocks outside the loop that are targets of edges
// leaving the loop, in deterministic block-ID order.
func (l *Loop) Exits() []*Block {
	seen := map[*Block]bool{}
	var out []*Block
	for b := range l.Blocks {
		for _, s := range b.Term.Succs {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sortBlocksByID(out)
	return out
}

func sortBlocksByID(bs []*Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].ID < bs[j-1].ID; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// NaturalLoops finds all natural loops via dominance + back edges. Loops
// sharing a header are merged. Results are ordered by header block ID.
func (f *Function) NaturalLoops() []*Loop {
	idom := f.Dominators()
	byHeader := map[*Block]*Loop{}
	var headers []*Block
	for _, b := range f.ReachableOrder() {
		for _, s := range b.Term.Succs {
			if !Dominates(idom, s, b) {
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
	return out
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
