package ir

import (
	"slices"
	"sort"
)

// CallSite is one static call instruction location within a function.
type CallSite struct {
	Caller *Function
	Block  *Block
	Index  int // instruction index within Block
	Callee string
}

// CallGraph is the static call graph of a program.
type CallGraph struct {
	Prog  *Program
	Calls map[string][]CallSite // caller name -> call sites
	Edges map[string]map[string]bool
	Rev   map[string]map[string]bool

	// The SCC partition, computed once by BuildCallGraph (the graph is
	// never mutated afterwards): components callees-first, and each name's
	// index into them.
	sccs [][]string
	comp map[string]int
}

// BuildCallGraph scans every function for direct calls.
func BuildCallGraph(p *Program) *CallGraph {
	cg := &CallGraph{
		Prog:  p,
		Calls: map[string][]CallSite{},
		Edges: map[string]map[string]bool{},
		Rev:   map[string]map[string]bool{},
	}
	for _, f := range p.Functions() {
		cg.Edges[f.Name] = map[string]bool{}
		if cg.Rev[f.Name] == nil {
			cg.Rev[f.Name] = map[string]bool{}
		}
	}
	for _, f := range p.Functions() {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != OpCall {
					continue
				}
				cg.Calls[f.Name] = append(cg.Calls[f.Name], CallSite{Caller: f, Block: b, Index: i, Callee: in.Callee})
				cg.Edges[f.Name][in.Callee] = true
				if cg.Rev[in.Callee] == nil {
					cg.Rev[in.Callee] = map[string]bool{}
				}
				cg.Rev[in.Callee][f.Name] = true
			}
		}
	}
	cg.sccs = cg.computeSCCs()
	cg.comp = make(map[string]int, len(cg.sccs))
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
// the partition BuildCallGraph stored.
func (cg *CallGraph) computeSCCs() [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	names := append([]string(nil), cg.Prog.Order...)
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		succs := make([]string, 0, len(cg.Edges[v]))
		for w := range cg.Edges[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
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
