// Package inference implements profile inference: repairing sampled,
// possibly inconsistent basic-block counts into a flow-consistent profile
// (block and edge counts obeying conservation), in the spirit of the
// minimum-cost-flow approaches the paper's evaluation enables for all PGO
// variants (Levin et al. [9], profi [10]).
//
// The formulation: each block contributes a "measurement arc" that rewards
// routing flow up to the measured count and charges for exceeding it;
// CFG edges are free arcs; a virtual source feeds the entry and every
// exit drains to a virtual sink, which ties back to the source so the
// optimum is a minimum-cost circulation.
//
// The solver cancels negative-cost residual cycles until none is left,
// which is exact. Each search is a Bellman-Ford pass from an all-zero
// labelling that stops at the first round whose predecessor graph holds a
// cycle (such a cycle is always negative) and cancels it there, so one
// augmentation costs a couple of sweeps, not one per node. Which of
// several equal-cost optima comes out depends on arc order and on which
// cycle closes first; testdata/flows_pinned.txt freezes that choice and
// TestSolverMatchesReferenceCost holds the cost to the exhaustive
// reference's.
package inference

import "math"

const (
	infCap = int64(math.MaxInt64 / 4)

	// Cost model (per unit of flow).
	costReward  = -10 // matching a measured unit of block weight
	costExceed  = 3   // pushing a block above its measurement
	costColdUse = 6   // routing through a sampled-zero block
	costEdge    = 0   // CFG edge traversal

	// maxAugmentations is the solver's safety valve; near-optimal is fine.
	maxAugmentations = 10000
)

// arcSpec is one arc as it was added, before the solve lays the residual
// graph out.
type arcSpec struct {
	from, to  int32
	cap, cost int64
}

// mcfGraph is a min-cost-circulation instance. Arcs are collected by addArc;
// cancelNegativeCycles lays them out and solves; flow reads the result.
type mcfGraph struct {
	n     int
	specs []arcSpec

	// Residual graph in compressed rows: node u's arcs are the positions
	// [start[u], start[u+1]), in the order they were added (an arc on its
	// tail, its zero-capacity twin on its head).
	start []int32
	to    []int32
	cost  []int64
	resid []int64
	rev   []int32 // position of the twin
	// twin[id] is the position of arc id's twin, whose residual capacity
	// is exactly the flow on id.
	twin []int32
	next []int32 // layout's fill cursor per node

	// Bellman-Ford tables, by node.
	dist     []int64
	predNode []int32 // tail of the arc that last lowered dist[v], -1 = none
	predArc  []int32 // position of that arc
	moved    []bool  // dist[u] was lowered since u's arcs were last scanned
	mark     []int32 // predCycle's colours
}

// addArc adds a directed arc and returns its id for flow.
func (g *mcfGraph) addArc(from, to int, cap, cost int64) int {
	g.specs = append(g.specs, arcSpec{int32(from), int32(to), cap, cost})
	return len(g.specs) - 1
}

// flow returns the flow the solve put on arc id.
func (g *mcfGraph) flow(id int) int64 { return g.resid[g.twin[id]] }

// layout builds the compressed residual graph from the collected arcs, on
// the arrays of the graph's previous instance where they have the room.
func (g *mcfGraph) layout() {
	n, m := g.n, 2*len(g.specs)
	g.start = resize(g.start, n+1)
	clear(g.start)
	for _, s := range g.specs {
		g.start[s.from+1]++
		g.start[s.to+1]++
	}
	for u := 0; u < n; u++ {
		g.start[u+1] += g.start[u]
	}
	// Every position of the four arc arrays and of twin is written below.
	g.to, g.cost, g.resid, g.rev = resize(g.to, m), resize(g.cost, m), resize(g.resid, m), resize(g.rev, m)
	g.twin = resize(g.twin, len(g.specs))
	next := resize(g.next, n)
	g.next = next
	copy(next, g.start)
	for id, s := range g.specs {
		fwd := next[s.from]
		next[s.from]++
		bwd := next[s.to]
		next[s.to]++
		g.to[fwd], g.cost[fwd], g.resid[fwd], g.rev[fwd] = s.to, s.cost, s.cap, bwd
		g.to[bwd], g.cost[bwd], g.resid[bwd], g.rev[bwd] = s.from, -s.cost, 0, fwd
		g.twin[id] = bwd
	}
}

// cancelNegativeCycles augments along negative-cost residual cycles until a
// full Bellman-Ford pass converges without one. It returns the number of
// augmentations and of Bellman-Ford rounds (sweeps over the moved nodes),
// the solver's deterministic work count.
func (g *mcfGraph) cancelNegativeCycles() (augmentations, rounds int) {
	g.layout()
	n := g.n
	start, to, cost, resid, rev := g.start, g.to, g.cost, g.resid, g.rev
	// Every pass clears dist and resets predNode and moved; predArc is read
	// only where predNode was set in the same pass; predCycle clears mark.
	g.dist, g.predNode, g.predArc = resize(g.dist, n), resize(g.predNode, n), resize(g.predArc, n)
	g.moved, g.mark = resize(g.moved, n), resize(g.mark, n)
	dist, predNode, predArc, moved, mark := g.dist, g.predNode, g.predArc, g.moved, g.mark
	for augmentations < maxAugmentations {
		clear(dist)
		for i := range predNode {
			predNode[i] = -1
			moved[i] = true
		}
		on := int32(-1)
		for on < 0 {
			rounds++
			improved := false
			for u := 0; u < n; u++ {
				// Residuals are fixed within a pass and labels only fall, so
				// a node whose label has not moved has nothing new to offer.
				if !moved[u] {
					continue
				}
				moved[u] = false
				for a := start[u]; a < start[u+1]; a++ {
					if resid[a] <= 0 {
						continue
					}
					v := to[a]
					if d := dist[u] + cost[a]; d < dist[v] {
						dist[v] = d
						predNode[v] = int32(u)
						predArc[v] = a
						moved[v] = true
						improved = true
					}
				}
			}
			if !improved {
				return augmentations, rounds
			}
			on = predCycle(predNode, mark)
		}
		bottleneck := infCap
		for u := on; ; {
			bottleneck = min(bottleneck, resid[predArc[u]])
			if u = predNode[u]; u == on {
				break
			}
		}
		for u := on; ; {
			a := predArc[u]
			resid[a] -= bottleneck
			resid[rev[a]] += bottleneck
			if u = predNode[u]; u == on {
				break
			}
		}
		augmentations++
	}
	return augmentations, rounds
}

// predCycle returns a node on a cycle of the predecessor graph, or -1. It
// walks each unmarked node's predecessor chain, colouring it with the walk's
// own id: meeting that colour again closes a cycle, meeting an older one or
// a root does not. mark is scratch of len(pred).
func predCycle(pred, mark []int32) int32 {
	clear(mark)
	for v := range pred {
		id := int32(v + 1)
		u := int32(v)
		for u >= 0 && mark[u] == 0 {
			mark[u] = id
			u = pred[u]
		}
		if u >= 0 && mark[u] == id {
			return u
		}
	}
	return -1
}
