package introspect

import (
	"fmt"
	"sort"
	"strings"

	"csspgo/internal/profdata"
)

// TrieNode is one node of the context trie: the function executing at this
// depth, the call site in the parent frame that reaches it, and its sample
// weights. Exclusive is the weight of profiles whose context ends exactly
// here; Inclusive adds every descendant's weight (so a node's Inclusive is
// what a flamegraph renders as its width).
type TrieNode struct {
	Func string
	// Site is the call site in the parent frame leading here (zero for
	// depth-1 nodes, which are context roots).
	Site      profdata.LocKey
	Exclusive uint64
	Inclusive uint64
	Children  []*TrieNode

	children map[trieKey]*TrieNode // insertion index; nil after freeze
}

type trieKey struct {
	site profdata.LocKey
	fn   string
}

// BuildTrie assembles the context trie of a profile: every context profile
// contributes its body samples at its path, and base function profiles
// (flat residue) contribute depth-1 nodes. The returned root is synthetic
// (Func ""); its Inclusive is the profile's total weight. Children are
// sorted by (Func, Site), so walks and renderings are deterministic.
func BuildTrie(p *profdata.Profile) *TrieNode {
	root := &TrieNode{children: map[trieKey]*TrieNode{}}
	insert := func(frames profdata.Context, w uint64) {
		if len(frames) == 0 {
			return
		}
		node := root
		for i, f := range frames {
			key := trieKey{fn: f.Func}
			if i > 0 {
				key.site = frames[i-1].Site
			}
			child := node.children[key]
			if child == nil {
				child = &TrieNode{Func: f.Func, Site: key.site, children: map[trieKey]*TrieNode{}}
				node.children[key] = child
			}
			node = child
		}
		node.Exclusive += w
	}
	for _, name := range p.SortedFuncNames() {
		insert(profdata.Context{{Func: name}}, p.Funcs[name].TotalSamples)
	}
	for _, key := range p.SortedContextKeys() {
		fp := p.Contexts[key]
		insert(fp.Context, fp.TotalSamples)
	}
	root.freeze()
	return root
}

// freeze computes inclusive weights and sorts children recursively.
func (n *TrieNode) freeze() {
	n.Children = make([]*TrieNode, 0, len(n.children))
	for _, c := range n.children {
		n.Children = append(n.Children, c)
	}
	n.children = nil
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Site.ID != b.Site.ID {
			return a.Site.ID < b.Site.ID
		}
		return a.Site.Disc < b.Site.Disc
	})
	n.Inclusive = n.Exclusive
	for _, c := range n.Children {
		c.freeze()
		n.Inclusive += c.Inclusive
	}
}

// walk visits every node except the synthetic root in preorder,
// deterministic child order, with its depth (1 = context root).
func (n *TrieNode) walk(fn func(node *TrieNode, depth int)) {
	var rec func(node *TrieNode, depth int)
	rec = func(node *TrieNode, depth int) {
		if depth > 0 {
			fn(node, depth)
		}
		for _, c := range node.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
}

// Format renders the trie as an indented tree with inclusive/exclusive
// weights and each node's share of the total.
func (n *TrieNode) Format() string {
	var sb strings.Builder
	total := n.Inclusive
	fmt.Fprintf(&sb, "context trie: %d total samples\n", total)
	n.walk(func(node *TrieNode, depth int) {
		label := node.Func
		if depth > 1 {
			label = fmt.Sprintf("%s (from site %s)", node.Func, node.Site)
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(node.Inclusive) / float64(total)
		}
		fmt.Fprintf(&sb, "%s%-*s incl=%-10d excl=%-10d %5.1f%%\n",
			strings.Repeat("  ", depth-1), 44-2*(depth-1), label,
			node.Inclusive, node.Exclusive, share)
	})
	return sb.String()
}
