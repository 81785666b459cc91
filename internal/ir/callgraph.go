package ir

import "slices"

// CallGraph is the static call graph of a program.
type CallGraph struct {
	Prog  *Program
	Edges map[string]map[string]bool // caller name -> direct callees

	// The SCC partition, computed once by BuildCallGraphIn (the graph is
	// never mutated afterwards): components callees-first, and each name's
	// index into them.
	sccs [][]string
	comp map[string]int
}

// CallGraphScratch is the storage of BuildCallGraphIn's SCC computation:
// Tarjan's tables and the partition the graph keeps. A caller that builds
// many call graphs keeps one.
type CallGraphScratch struct {
	index   map[string]int32 // a name's visit number
	low     []int32          // by visit number
	onStack []bool           // by visit number
	stack   []string
	succs   []string // the sorted callees of every name on the walk
	members []string // the components' names, callees first
	ends    []int    // where each component ends in members
	sccs    [][]string
	comp    map[string]int
}

// BuildCallGraphIn scans every function for direct calls and partitions
// the graph into SCCs, in s's storage: the graph's queries are valid until
// s is used again.
func BuildCallGraphIn(p *Program, s *CallGraphScratch) *CallGraph {
	cg := &CallGraph{Prog: p, Edges: map[string]map[string]bool{}}
	for _, f := range p.Functions() {
		callees := map[string]bool{}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == OpCall {
					callees[in.Callee] = true
				}
			}
		}
		cg.Edges[f.Name] = callees
	}
	cg.sccs = cg.computeSCCsIn(s)
	if s.comp == nil {
		s.comp = make(map[string]int, len(cg.sccs))
	}
	clear(s.comp)
	cg.comp = s.comp
	for i, scc := range cg.sccs {
		for _, n := range scc {
			cg.comp[n] = i
		}
	}
	return cg
}

// computeSCCs returns strongly connected components in reverse topological order
// (callees before callers), computed with Tarjan's algorithm. Each SCC is
// sorted by name for determinism. A callee name that has no function is a
// component of its own. Every call computes afresh; the queries below read
// the partition BuildCallGraphIn stored.
func (cg *CallGraph) computeSCCs() [][]string { return cg.computeSCCsIn(new(CallGraphScratch)) }

// computeSCCsIn is computeSCCs in s's storage.
func (cg *CallGraph) computeSCCsIn(s *CallGraphScratch) [][]string {
	if s.index == nil {
		s.index = make(map[string]int32, len(cg.Prog.Order))
	}
	clear(s.index)
	index := s.index
	low, onStack := s.low[:0], s.onStack[:0]
	stack, members, ends := s.stack[:0], s.members[:0], s.ends[:0]
	succs := s.succs[:0]

	var strongconnect func(v string)
	strongconnect = func(v string) {
		vi := int32(len(low))
		index[v] = vi
		low = append(low, vi)
		onStack = append(onStack, true)
		stack = append(stack, v)
		// v's callees by name, on top of its callers' in the succs stack.
		base := len(succs)
		for w := range cg.Edges[v] {
			succs = append(succs, w)
		}
		slices.Sort(succs[base:])
		for k := base; k < len(succs); k++ {
			w := succs[k]
			if wi, seen := index[w]; !seen {
				strongconnect(w)
				low[vi] = min(low[vi], low[index[w]])
			} else if onStack[wi] && wi < low[vi] {
				low[vi] = wi
			}
		}
		succs = succs[:base]
		if low[vi] == vi {
			first := len(members)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[index[w]] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			slices.Sort(members[first:])
			ends = append(ends, len(members))
		}
	}
	for _, n := range cg.Prog.Order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	sccs := slices.Grow(s.sccs[:0], len(ends))
	first := 0
	for _, end := range ends {
		sccs = append(sccs, members[first:end:end])
		first = end
	}
	s.low, s.onStack, s.stack, s.members, s.ends, s.succs, s.sccs = low, onStack, stack, members, ends, succs, sccs
	return sccs
}

// BottomUpOrder returns function names callees-first (Tarjan order
// flattened). Mutually recursive functions appear in name order within
// their SCC.
func (cg *CallGraph) BottomUpOrder() []string {
	out := make([]string, 0, len(cg.comp))
	for _, scc := range cg.sccs {
		out = append(out, scc...)
	}
	return out
}

// TopDownOrder returns function names callers-first.
func (cg *CallGraph) TopDownOrder() []string {
	out := cg.BottomUpOrder()
	slices.Reverse(out)
	return out
}

// InSameSCC reports whether a and b are mutually recursive (or a == b and
// self-recursive for isRecursive).
func (cg *CallGraph) InSameSCC(a, b string) bool {
	ca, ok := cg.comp[a]
	if cb, okb := cg.comp[b]; !ok || !okb || ca != cb {
		return false
	}
	// A component of one holds a == b only.
	return len(cg.sccs[ca]) > 1 || cg.Edges[a][a]
}
