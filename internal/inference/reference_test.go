package inference

import "csspgo/internal/ir"

// The solver as it was before cycles were canceled when they close: every
// Bellman-Ford search sweeps all n rounds over every arc and extracts one
// cycle afterwards, O(n·m) per augmentation. It is kept test-only as the
// oracle for the production solver's cost (TestSolverMatchesReferenceCost)
// and as the baseline of its work count (TestSolverRoundsPinned).

type refArc struct {
	to   int
	cap  int64
	cost int64
	flow int64
	rev  int // index of reverse arc in arcs[to]
}

type refGraph struct {
	arcs [][]refArc
}

// newRefGraph rebuilds a production instance arc for arc, so both solvers
// scan the same adjacency order.
func newRefGraph(g *mcfGraph) *refGraph {
	r := &refGraph{arcs: make([][]refArc, g.n)}
	for _, s := range g.specs {
		from, to := int(s.from), int(s.to)
		r.arcs[from] = append(r.arcs[from], refArc{to: to, cap: s.cap, cost: s.cost, rev: len(r.arcs[to])})
		r.arcs[to] = append(r.arcs[to], refArc{to: from, cap: 0, cost: -s.cost, rev: len(r.arcs[from]) - 1})
	}
	return r
}

func (g *refGraph) cancelNegativeCycles() (augmentations, rounds int) {
	n := len(g.arcs)
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
			rounds++
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
			return augmentations, rounds
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
			return augmentations, rounds
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
		augmentations++
		if augmentations > maxAugmentations {
			return augmentations, rounds
		}
	}
}

// cost is the circulation's total cost over the forward arcs.
func (g *refGraph) cost() int64 {
	var c int64
	for _, arcs := range g.arcs {
		for _, a := range arcs {
			if a.flow > 0 {
				c += a.flow * a.cost
			}
		}
	}
	return c
}

// Solved is one function's inference under both solvers.
type Solved struct {
	Cost, RefCost                   int64
	Augmentations, RefAugmentations int
	Rounds, RefRounds               int
	Violations                      int // checkConsistency after the production solve
}

// SolveBoth runs infer's steps on f (which must still carry its raw
// weights) with the production solver, and the reference on a copy of the
// same instance. It is the external corpus tests' way in.
func SolveBoth(f *ir.Function) Solved {
	blocks := f.ReachableOrder()
	nw := new(Workspace).buildNetwork(blocks)
	ref := newRefGraph(nw.g)

	var s Solved
	s.Augmentations, s.Rounds = nw.g.cancelNegativeCycles()
	for id, spec := range nw.g.specs {
		s.Cost += nw.g.flow(id) * spec.cost
	}
	nw.apply(blocks)
	s.Violations = checkConsistency(f)

	s.RefAugmentations, s.RefRounds = ref.cancelNegativeCycles()
	s.RefCost = ref.cost()
	return s
}

// MaxAugmentations and RandomCFG open the valve and the seed-42 generator
// to the external tests.
const MaxAugmentations = maxAugmentations

var RandomCFG = randomCFG
