package ir

import "slices"

// CallGraph is the static call graph of a program.
type CallGraph struct {
	Prog *Program

	// Computed once by BuildCallGraphIn (the graph is never mutated
	// afterwards): each function's direct callees, sorted and unique, and
	// whether it calls itself, both by its position in Prog.Order; the SCC
	// partition, components callees-first; and each name's index into it.
	pos      map[string]int32
	callees  [][]string
	selfCall []bool
	sccs     [][]string
	comp     map[string]int
}

// CallGraphScratch is the storage of BuildCallGraphIn: the callee lists,
// Tarjan's tables and the partition the graph keeps. A caller that builds
// many call graphs keeps one.
type CallGraphScratch struct {
	pos      map[string]int32 // a function's position in Prog.Order
	slab     []string         // every function's callees, back to back
	callees  [][]string       // sub-slices of slab, by position
	selfCall []bool           // by position
	index    map[string]int32 // a name's visit number
	low      []int32          // by visit number
	onStack  []bool           // by visit number
	stack    []string
	members  []string // the components' names, callees first
	ends     []int    // where each component ends in members
	sccs     [][]string
	comp     map[string]int
}

// BuildCallGraphIn scans every function for direct calls and partitions
// the graph into SCCs, in s's storage: the graph's queries are valid until
// s is used again.
func BuildCallGraphIn(p *Program, s *CallGraphScratch) *CallGraph {
	if s.pos == nil {
		s.pos = make(map[string]int32, len(p.Order))
	}
	clear(s.pos)
	slab, ends := s.slab[:0], s.ends[:0]
	selfCall := s.selfCall[:0]
	for i, name := range p.Order {
		s.pos[name] = int32(i)
		base := len(slab)
		for _, b := range p.Funcs[name].Blocks {
			for j := range b.Instrs {
				if in := &b.Instrs[j]; in.Op == OpCall {
					slab = append(slab, in.Sym())
				}
			}
		}
		slices.Sort(slab[base:])
		slab = slab[:base+len(slices.Compact(slab[base:]))]
		_, self := slices.BinarySearch(slab[base:], name)
		selfCall = append(selfCall, self)
		ends = append(ends, len(slab))
	}
	// Cut the sub-slices once the slab has stopped growing (the SCC walk
	// reuses ends afterwards).
	callees := slices.Grow(s.callees[:0], len(ends))
	first := 0
	for _, end := range ends {
		callees = append(callees, slab[first:end:end])
		first = end
	}
	s.slab, s.ends, s.callees, s.selfCall = slab, ends, callees, selfCall
	cg := &CallGraph{Prog: p, pos: s.pos, callees: callees, selfCall: selfCall}
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

// calleesOf returns name's direct callees, sorted and unique; nil for a
// name that has no function.
func (cg *CallGraph) calleesOf(name string) []string {
	if i, ok := cg.pos[name]; ok {
		return cg.callees[i]
	}
	return nil
}

// callsItself reports whether name's function calls itself directly.
func (cg *CallGraph) callsItself(name string) bool {
	i, ok := cg.pos[name]
	return ok && cg.selfCall[i]
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

	var strongconnect func(v string)
	strongconnect = func(v string) {
		vi := int32(len(low))
		index[v] = vi
		low = append(low, vi)
		onStack = append(onStack, true)
		stack = append(stack, v)
		for _, w := range cg.calleesOf(v) {
			if wi, seen := index[w]; !seen {
				strongconnect(w)
				low[vi] = min(low[vi], low[index[w]])
			} else if onStack[wi] && wi < low[vi] {
				low[vi] = wi
			}
		}
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
	s.low, s.onStack, s.stack, s.members, s.ends, s.sccs = low, onStack, stack, members, ends, sccs
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
	return len(cg.sccs[ca]) > 1 || cg.callsItself(a)
}
