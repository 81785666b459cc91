package inference

import "csspgo/internal/ir"

// result summarizes one function's inference run.
type result struct {
	Augmentations int
	// Adjusted counts how many blocks changed weight.
	Adjusted int
}

// infer repairs the function's annotated block weights into a consistent
// flow and derives edge weights. Blocks with HasWeight are treated as
// measurements; others are free. On return every reachable block has
// HasWeight set and Term.EdgeW parallel to its successors, and flow
// conservation holds (inflow == block weight == outflow, modulo the
// virtual entry/exit).
func infer(f *ir.Function) result {
	blocks := f.ReachableOrder()
	if len(blocks) == 0 {
		return result{}
	}
	nw := buildNetwork(blocks)
	augmentations, _ := nw.g.cancelNegativeCycles()
	return result{Augmentations: augmentations, Adjusted: nw.apply(blocks)}
}

// network is one function's circulation instance: block i of the reachable
// order is split into nodes 2i (in) and 2i+1 (out).
type network struct {
	g *mcfGraph
	// Weights are scaled down so cycle canceling converges in few
	// iterations.
	scale uint64
	// Block i's measurement arcs are ids [meas[i], meas[i+1]); the arc of
	// its successor si is edge[i]+si.
	meas, edge []int32
}

func buildNetwork(blocks []*ir.Block) *network {
	n := len(blocks)
	var maxW uint64
	maxID, succs := 0, 0
	for _, b := range blocks {
		if b.HasWeight && b.Weight > maxW {
			maxW = b.Weight
		}
		maxID = max(maxID, b.ID)
		succs += len(b.Term.Succs)
	}
	scale := uint64(1)
	for maxW/scale > 1<<16 {
		scale *= 2
	}
	idx := make([]int32, maxID+1) // block ID -> position in blocks
	for i, b := range blocks {
		idx[b.ID] = int32(i)
	}

	inNode := func(i int) int { return 2 * i }
	outNode := func(i int) int { return 2*i + 1 }
	S, T := 2*n, 2*n+1
	g := newMCF(2*n + 2)
	// At most two measurement arcs and one sink arc per block.
	g.specs = make([]arcSpec, 0, 3*n+succs+2)
	nw := &network{g: g, scale: scale, meas: make([]int32, n+1), edge: make([]int32, n)}

	for i, b := range blocks {
		w := int64(b.Weight / scale)
		switch {
		case b.HasWeight && w > 0:
			g.addArc(inNode(i), outNode(i), w, costReward)
			g.addArc(inNode(i), outNode(i), infCap, costExceed)
		case b.HasWeight:
			g.addArc(inNode(i), outNode(i), infCap, costColdUse)
		default:
			g.addArc(inNode(i), outNode(i), infCap, 0)
		}
		nw.meas[i+1] = int32(len(g.specs))
	}
	// Every successor of a reachable block is reachable, so idx maps it.
	for i, b := range blocks {
		nw.edge[i] = int32(len(g.specs))
		for _, s := range b.Term.Succs {
			g.addArc(outNode(i), inNode(int(idx[s.ID])), infCap, costEdge)
		}
	}
	// Virtual source/sink and the circulation-closing arc.
	g.addArc(S, inNode(0), infCap, 0)
	for i, b := range blocks {
		if b.Term.Kind == ir.TermReturn {
			g.addArc(outNode(i), T, infCap, 0)
		}
	}
	g.addArc(T, S, infCap, 0)
	return nw
}

// apply writes the solved flows back as block and edge weights and returns
// how many blocks changed weight.
func (nw *network) apply(blocks []*ir.Block) int {
	adjusted := 0
	for i, b := range blocks {
		var flow int64
		for id := nw.meas[i]; id < nw.meas[i+1]; id++ {
			flow += nw.g.flow(int(id))
		}
		w := uint64(flow) * nw.scale
		if !b.HasWeight || b.Weight != w {
			adjusted++
		}
		b.Weight = w
		b.HasWeight = true
		b.Term.EnsureEdgeWeights()
		for si := range b.Term.Succs {
			b.Term.EdgeW[si] = uint64(nw.g.flow(int(nw.edge[i])+si)) * nw.scale
		}
	}
	return adjusted
}

// InferProgram runs infer on every function that carries any profile
// weights, returning the total number of adjusted blocks.
func InferProgram(p *ir.Program) int {
	adjusted := 0
	for _, f := range p.Functions() {
		any := false
		for _, b := range f.Blocks {
			if b.HasWeight {
				any = true
				break
			}
		}
		if any {
			adjusted += infer(f).Adjusted
		}
	}
	return adjusted
}

// checkConsistency verifies flow conservation on a function whose weights
// and edge weights were produced by infer: for every reachable block, the
// sum of outgoing edge weights equals the block weight (returns the number
// of violations; exits contribute their weight to the virtual sink).
func checkConsistency(f *ir.Function) int {
	violations := 0
	blocks := f.ReachableOrder()
	inFlow := map[*ir.Block]uint64{}
	for _, b := range blocks {
		for si, s := range b.Term.Succs {
			if si < len(b.Term.EdgeW) {
				inFlow[s] += b.Term.EdgeW[si]
			}
		}
	}
	for i, b := range blocks {
		if len(b.Term.Succs) > 0 {
			var out uint64
			for _, w := range b.Term.EdgeW {
				out += w
			}
			if out != b.Weight {
				violations++
			}
		}
		// Non-entry blocks receive all their flow via CFG edges; the entry
		// additionally receives virtual-source flow and so may exceed.
		if i > 0 && inFlow[b] != b.Weight {
			violations++
		}
	}
	return violations
}
