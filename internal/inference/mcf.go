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
// optimum is a minimum-cost circulation. Negative-cycle canceling solves
// the circulation exactly on these small graphs.
package inference

import "math"

const (
	infCap = int64(math.MaxInt64 / 4)

	// Cost model (per unit of flow).
	costReward  = -10 // matching a measured unit of block weight
	costExceed  = 3   // pushing a block above its measurement
	costColdUse = 6   // routing through a sampled-zero block
	costEdge    = 0   // CFG edge traversal
)

type arc struct {
	to   int
	cap  int64
	cost int64
	flow int64
	rev  int // index of reverse arc in graph[to]
}

type mcfGraph struct {
	arcs [][]arc
}

func newMCF(n int) *mcfGraph { return &mcfGraph{arcs: make([][]arc, n)} }

// addArc adds a directed arc and its residual twin; returns (node, index)
// for later flow reads.
func (g *mcfGraph) addArc(from, to int, cap, cost int64) (int, int) {
	g.arcs[from] = append(g.arcs[from], arc{to: to, cap: cap, cost: cost, rev: len(g.arcs[to])})
	g.arcs[to] = append(g.arcs[to], arc{to: from, cap: 0, cost: -cost, rev: len(g.arcs[from]) - 1})
	return from, len(g.arcs[from]) - 1
}

// cancelNegativeCycles runs Bellman-Ford repeatedly, augmenting along any
// negative-cost residual cycle until none remain. Returns the number of
// augmentations (for tests).
func (g *mcfGraph) cancelNegativeCycles() int {
	n := len(g.arcs)
	iterations := 0
	// One set of Bellman-Ford tables for the whole solve, reset per
	// augmentation.
	dist := make([]int64, n)
	parentNode := make([]int, n)
	parentArc := make([]int, n)
	for {
		clear(dist)
		clear(parentArc)
		for i := range parentNode {
			parentNode[i] = -1
		}
		var cycleNode = -1
		for round := 0; round < n; round++ {
			improved := false
			for u := 0; u < n; u++ {
				for ai := range g.arcs[u] {
					a := &g.arcs[u][ai]
					if a.cap-a.flow <= 0 {
						continue
					}
					if dist[u]+a.cost < dist[a.to] {
						dist[a.to] = dist[u] + a.cost
						parentNode[a.to] = u
						parentArc[a.to] = ai
						improved = true
						if round == n-1 {
							cycleNode = a.to
						}
					}
				}
			}
			if !improved {
				break
			}
		}
		if cycleNode < 0 {
			return iterations
		}
		// Walk back n steps to land inside the cycle.
		v := cycleNode
		for i := 0; i < n; i++ {
			v = parentNode[v]
		}
		// Extract the cycle and find the bottleneck.
		start := v
		bottleneck := infCap
		u := start
		for {
			p, ai := parentNode[u], parentArc[u]
			a := &g.arcs[p][ai]
			if a.cap-a.flow < bottleneck {
				bottleneck = a.cap - a.flow
			}
			u = p
			if u == start {
				break
			}
		}
		if bottleneck <= 0 {
			return iterations
		}
		// Augment around the cycle.
		u = start
		for {
			p, ai := parentNode[u], parentArc[u]
			a := &g.arcs[p][ai]
			a.flow += bottleneck
			g.arcs[a.to][a.rev].flow -= bottleneck
			u = p
			if u == start {
				break
			}
		}
		iterations++
		if iterations > 10000 {
			return iterations // safety valve; near-optimal is fine
		}
	}
}
