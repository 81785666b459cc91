package preinline

import (
	"sort"

	"csspgo/internal/profdata"
)

// Params tunes the pre-inliner's heuristic.
type Params struct {
	// GrowthLimit bounds a root function's estimated post-inline size.
	GrowthLimit uint64
	// HotCalleeBytes is the size admitted for hot contexts.
	HotCalleeBytes uint64
	// ColdCalleeBytes is the size always admitted (tiny callees).
	ColdCalleeBytes uint64
	// HotCountThreshold: a context at least this hot (head samples) is a
	// hot candidate. Derive from the profile with DeriveParams.
	HotCountThreshold uint64
}

// DeriveParams picks thresholds from the profile's sample distribution: a
// context is "hot" when its entry count reaches the 90th percentile of
// non-zero context entry counts.
func DeriveParams(prof *profdata.Profile) Params {
	var heads []uint64
	for _, cp := range prof.Contexts {
		if cp.HeadSamples > 0 {
			heads = append(heads, cp.HeadSamples)
		}
	}
	p := Params{
		GrowthLimit:     2400,
		HotCalleeBytes:  220,
		ColdCalleeBytes: 36,
	}
	if len(heads) == 0 {
		p.HotCountThreshold = 1
		return p
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	p.HotCountThreshold = heads[len(heads)/2]
	if p.HotCountThreshold == 0 {
		p.HotCountThreshold = 1
	}
	return p
}

// Result reports the pre-inliner's work.
type Result struct {
	Inlined  int // contexts marked ShouldInline
	Promoted int // contexts merged down (not inlined)
}

// Run is Algorithm 2: every function with profile data is visited in
// top-down profiled-call-graph order; its inline candidates are the
// contexts rooted at it ("F:site @ callee"), greedily admitted hottest
// first while the size budget (seeded with F's binary-extracted size)
// lasts; admitting a context enqueues its child contexts. When F is done,
// its remaining (unadmitted) contexts are promoted one frame down — their
// counts flow toward the callee's own processing turn and ultimately into
// base profiles, so the persisted profile is exactly what the compiler
// should see after honoring the decisions. The profile is modified in
// place.
func Run(prof *profdata.Profile, sizes *SizeTable, params Params) Result {
	var res Result
	if !prof.CS {
		return res
	}

	// The program budget caps the bytes admitted across all roots: 35 % of
	// the profiled binary's standalone text, and at least 3000 bytes.
	var text uint64
	for _, sz := range sizes.ByFunc {
		text += sz
	}
	programBudget := max(text*35/100, 3000)
	var programSpent uint64

	for _, fn := range topDownOrder(prof) {
		budget := sizes.of(fn)
		limit := params.GrowthLimit
		// One sorted snapshot per turn. The candidate loop only marks
		// contexts, it adds and removes none, so the snapshot serves the
		// initial candidates (depth 2), the children an admission enqueues
		// (grouped by parent key, each group in key order) and the promotion
		// pass after it.
		rooted := rootedContexts(prof, fn)
		var queue []string
		children := map[string][]string{}
		for _, key := range rooted {
			if ctx := prof.Contexts[key].Context; ctx.Depth() == 2 {
				queue = append(queue, key)
			} else {
				parent := ctx.Parent().Key()
				children[parent] = append(children[parent], key)
			}
		}
		for len(queue) > 0 && budget < limit && programSpent < programBudget {
			// Pop the most beneficial candidate (hottest head count).
			best := 0
			for i := 1; i < len(queue); i++ {
				a, b := prof.Contexts[queue[i]], prof.Contexts[queue[best]]
				if a == nil {
					continue
				}
				if b == nil || a.HeadSamples > b.HeadSamples ||
					a.HeadSamples == b.HeadSamples && queue[i] < queue[best] {
					best = i
				}
			}
			key := queue[best]
			queue = append(queue[:best], queue[best+1:]...)
			cp := prof.Contexts[key]
			if cp == nil {
				continue
			}
			size := sizes.ofContext(cp.Context)
			if !shouldInline(size, cp.HeadSamples, params) {
				continue
			}
			cp.ShouldInline = true
			res.Inlined++
			budget += size
			programSpent += size
			queue = append(queue, children[key]...)
		}
		// Promote every unadmitted context rooted at fn by one frame so
		// the counts are available when the callee's own turn comes.
		for _, key := range rooted {
			cp, ok := prof.Contexts[key]
			if !ok || cp.ShouldInline {
				continue
			}
			if inMarkedSubtree(prof, cp) {
				continue // belongs to an admitted expansion; keep intact
			}
			res.Promoted++
			promote(prof, key)
		}
	}
	return res
}

// topDownOrder orders functions callers-first using the profiled call
// graph (edges from every profile's call-target maps), falling back to
// name order within cycles.
func topDownOrder(prof *profdata.Profile) []string {
	edges := map[string]map[string]bool{}
	nodes := map[string]bool{}
	addEdge := func(from, to string) {
		nodes[from], nodes[to] = true, true
		if edges[from] == nil {
			edges[from] = map[string]bool{}
		}
		edges[from][to] = true
	}
	for name, fp := range prof.Funcs {
		nodes[name] = true
		for _, m := range fp.Calls {
			for callee := range m {
				addEdge(name, callee)
			}
		}
	}
	for _, cp := range prof.Contexts {
		// The context frames themselves define caller→callee edges.
		for i := 0; i+1 < len(cp.Context); i++ {
			addEdge(cp.Context[i].Func, cp.Context[i+1].Func)
		}
		for _, m := range cp.Calls {
			for callee := range m {
				addEdge(cp.Name, callee)
			}
		}
	}
	// Kahn-style order with deterministic ties; cycles broken by name.
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	indeg := map[string]int{}
	for _, n := range names {
		indeg[n] += 0
		for to := range edges[n] {
			indeg[to]++
		}
	}
	var order []string
	used := map[string]bool{}
	for len(order) < len(names) {
		picked := ""
		for _, n := range names {
			if !used[n] && indeg[n] == 0 {
				picked = n
				break
			}
		}
		if picked == "" {
			// Cycle: pick the smallest remaining name.
			for _, n := range names {
				if !used[n] {
					picked = n
					break
				}
			}
		}
		used[picked] = true
		order = append(order, picked)
		for to := range edges[picked] {
			indeg[to]--
		}
	}
	return order
}

// rootedContexts returns, in key order, the keys of the contexts (depth 2
// or more) whose outermost frame is fn.
func rootedContexts(prof *profdata.Profile, fn string) []string {
	var out []string
	for key, cp := range prof.Contexts {
		if len(cp.Context) >= 2 && cp.Context[0].Func == fn {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// inMarkedSubtree reports whether any ancestor context of cp is marked for
// inlining (the context will be consumed as part of that expansion).
func inMarkedSubtree(prof *profdata.Profile, cp *profdata.FunctionProfile) bool {
	for ctx := cp.Context.Parent(); ctx.Depth() >= 2; ctx = ctx.Parent() {
		if p := prof.Contexts[ctx.Key()]; p != nil && p.ShouldInline {
			return true
		}
	}
	return false
}

func shouldInline(size, hotness uint64, p Params) bool {
	if size <= p.ColdCalleeBytes && hotness > 0 {
		return true
	}
	return hotness >= p.HotCountThreshold && size <= p.HotCalleeBytes
}

// promote merges a context one frame down: "A:1 @ B:2 @ C" folds into
// "B:2 @ C" (or into C's base profile at depth 2). If the shallower
// context exists its ShouldInline decision is preserved.
func promote(prof *profdata.Profile, key string) {
	cp := prof.Contexts[key]
	if cp == nil {
		return
	}
	delete(prof.Contexts, key)
	if cp.Context.Depth() <= 2 {
		base := prof.FuncProfile(cp.Name)
		if base.Checksum == 0 {
			base.Checksum = cp.Checksum
		}
		base.Merge(cp)
		return
	}
	newCtx := append(profdata.Context(nil), cp.Context[1:]...)
	dst := prof.ContextProfile(newCtx)
	if dst.Checksum == 0 {
		dst.Checksum = cp.Checksum
	}
	wasMarked := dst.ShouldInline
	dst.Merge(cp)
	dst.ShouldInline = wasMarked
}
