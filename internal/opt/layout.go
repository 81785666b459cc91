package opt

import (
	"cmp"
	"slices"

	"csspgo/internal/ir"
)

// layout reorders the function's blocks to maximize fallthrough along hot
// edges — an Ext-TSP-inspired greedy chain merge (Newell & Pupyrev [15],
// degenerating to Pettis-Hansen chaining): every block starts as its own
// chain; candidate (tail→head) edges merge chains in decreasing weight
// order; the entry chain is laid first and remaining chains follow in
// decreasing hotness. Codegen's fallthrough elision and branch-polarity
// selection then turn hot edges into straight-line execution.
//
// A chain only ever grows at its tail, so it is named by the position of
// its head block, and the chains are linked lists over block positions in
// the workspace's tables.
//
// Requires edge weights (run inference first); does nothing without them.
func (ws *workspace) layout(f *ir.Function) bool {
	hasW := false
	for _, b := range f.Blocks {
		if b.HasWeight {
			hasW = true
			break
		}
	}
	if !hasW || len(f.Blocks) < 3 {
		return false
	}

	s := &ws.chains
	n := len(f.Blocks)
	pos := ws.positions(f)
	s.chain = slices.Grow(s.chain[:0], n)[:n]
	s.next = slices.Grow(s.next[:0], n)[:n]
	s.tail = slices.Grow(s.tail[:0], n)[:n]
	chain, next, tail := s.chain, s.next, s.tail
	for i := range chain {
		chain[i], next[i], tail[i] = int32(i), -1, int32(i)
	}

	edges := s.edges[:0]
	for _, b := range f.Blocks {
		b.Term.EnsureEdgeWeights()
		for si, succ := range b.Term.Succs {
			if succ == b {
				continue
			}
			edges = append(edges, layoutEdge{from: b, to: succ, w: b.Term.EdgeW[si]})
		}
	}
	slices.SortStableFunc(edges, func(a, b layoutEdge) int {
		if a.w != b.w {
			return cmp.Compare(b.w, a.w)
		}
		if a.from.ID != b.from.ID {
			return cmp.Compare(a.from.ID, b.from.ID)
		}
		return cmp.Compare(a.to.ID, b.to.ID)
	})
	s.edges = edges

	for _, e := range edges {
		from, to := position(pos, e.from), position(pos, e.to)
		if from < 0 || to < 0 {
			continue // an edge to or from outside the function joins no chain
		}
		cf, ct := chain[from], chain[to]
		// Merge only tail-of-cf → head-of-ct, and the entry block (position
		// 0) must stay a chain head.
		if cf == ct || tail[cf] != from || ct != to || ct == 0 {
			continue
		}
		next[tail[cf]] = ct
		tail[cf] = tail[ct]
		for x := ct; x >= 0; x = next[x] {
			chain[x] = cf
		}
	}

	// Order chains: entry first, then by max block weight descending, then
	// by smallest block ID (the chains are disjoint, so this is total).
	heads := s.heads[:0]
	for c := range chain {
		if chain[c] != int32(c) {
			continue // not a chain head
		}
		ci := chainInfo{head: int32(c), min: f.Blocks[c].ID}
		for x := int32(c); x >= 0; x = next[x] {
			b := f.Blocks[x]
			ci.heat = max(ci.heat, b.Weight)
			ci.min = min(ci.min, b.ID)
		}
		heads = append(heads, ci)
	}
	slices.SortFunc(heads, func(a, b chainInfo) int {
		if (a.head == 0) != (b.head == 0) {
			if a.head == 0 {
				return -1
			}
			return 1
		}
		if a.heat != b.heat {
			return cmp.Compare(b.heat, a.heat)
		}
		return cmp.Compare(a.min, b.min)
	})
	s.heads = heads

	order := s.order[:0]
	for _, ci := range heads {
		for x := ci.head; x >= 0; x = next[x] {
			order = append(order, f.Blocks[x])
		}
	}
	copy(f.Blocks, order)
	s.order = order
	return true
}

// layoutScratch is layout's storage: the chains as linked lists over block
// positions, the candidate edges, the chains to order and the order.
type layoutScratch struct {
	chain []int32 // by position: the head position of the block's chain
	next  []int32 // by position: the next block of its chain; -1 = the tail
	tail  []int32 // by head position: the chain's tail
	edges []layoutEdge
	heads []chainInfo
	order []*ir.Block
}

// layoutEdge is a candidate fallthrough edge and its weight.
type layoutEdge struct {
	from, to *ir.Block
	w        uint64
}

// chainInfo is what orders a chain.
type chainInfo struct {
	head int32 // position of its head block
	heat uint64
	min  int // smallest block ID, for deterministic ties
}

// layoutPass only reorders blocks; weights and edges are untouched, so the
// flow guarantee established by inference survives it.
var layoutPass = registerPass("layout", flowPreserves, semStructural)

// layoutProgram lays out every function with a profile; returns how many
// functions were reordered.
func (ws *workspace) layoutProgram(p *ir.Program) int {
	n := 0
	for _, f := range p.Functions() {
		f.RemoveUnreachable()
		if ws.layout(f) {
			n++
		}
	}
	return n
}
