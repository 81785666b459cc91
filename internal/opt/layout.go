package opt

import (
	"sort"

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
// Requires edge weights (run inference first); does nothing without them.
func layout(f *ir.Function) bool {
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

	chainOf := map[*ir.Block]int{}
	chains := map[int][]*ir.Block{}
	for i, b := range f.Blocks {
		chainOf[b] = i
		chains[i] = []*ir.Block{b}
	}

	type edge struct {
		from, to *ir.Block
		w        uint64
	}
	var edges []edge
	for _, b := range f.Blocks {
		b.Term.EnsureEdgeWeights()
		for si, s := range b.Term.Succs {
			if s == b {
				continue
			}
			edges = append(edges, edge{from: b, to: s, w: b.Term.EdgeW[si]})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].from.ID != edges[j].from.ID {
			return edges[i].from.ID < edges[j].from.ID
		}
		return edges[i].to.ID < edges[j].to.ID
	})

	for _, e := range edges {
		cf, ct := chainOf[e.from], chainOf[e.to]
		if cf == ct {
			continue
		}
		// Merge only tail-of-cf → head-of-ct.
		tail := chains[cf][len(chains[cf])-1]
		head := chains[ct][0]
		if tail != e.from || head != e.to {
			continue
		}
		// The entry block must stay a chain head.
		if head == f.Entry() {
			continue
		}
		merged := append(chains[cf], chains[ct]...)
		chains[cf] = merged
		for _, b := range chains[ct] {
			chainOf[b] = cf
		}
		delete(chains, ct)
	}

	// Order chains: entry first, then by max block weight descending.
	type chainInfo struct {
		id   int
		heat uint64
		min  int // smallest block ID, for deterministic ties
	}
	var infos []chainInfo
	entryChain := chainOf[f.Entry()]
	for id, blocks := range chains {
		ci := chainInfo{id: id, min: blocks[0].ID}
		for _, b := range blocks {
			if b.Weight > ci.heat {
				ci.heat = b.Weight
			}
			if b.ID < ci.min {
				ci.min = b.ID
			}
		}
		infos = append(infos, ci)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].id == entryChain {
			return true
		}
		if infos[j].id == entryChain {
			return false
		}
		if infos[i].heat != infos[j].heat {
			return infos[i].heat > infos[j].heat
		}
		return infos[i].min < infos[j].min
	})

	var order []*ir.Block
	for _, ci := range infos {
		order = append(order, chains[ci.id]...)
	}
	if len(order) != len(f.Blocks) {
		return false // unreachable blocks missing; bail conservatively
	}
	f.Blocks = order
	return true
}

// layoutPass only reorders blocks; weights and edges are untouched, so the
// flow guarantee established by inference survives it.
var layoutPass = registerPass("layout", flowPreserves, semStructural)

// layoutProgram lays out every function with a profile; returns how many
// functions were reordered.
func layoutProgram(p *ir.Program) int {
	n := 0
	for _, f := range p.Functions() {
		f.RemoveUnreachable()
		if layout(f) {
			n++
		}
	}
	return n
}
