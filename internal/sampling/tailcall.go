package sampling

import "sort"

// tailEdge is one observed dynamic tail-call edge.
type tailEdge struct {
	From     string
	To       string
	SiteAddr uint64 // address of the tail-call instruction in From
}

// tailCallGraph is the dynamic call graph of tail-call edges observed in
// LBR samples. The missing-frame inferrer (§III.B "Reliable stack
// sampling") DFS-searches it for a unique path between a call's static
// target and the frame actually observed below it; a unique path recovers
// the frames that tail-call elimination removed from the stack.
// CSSPGOStream.Finish builds it from the workers' first edge observations.
type tailCallGraph struct {
	edges map[string]map[string]*tailEdge
}

// inferPath returns the unique tail-call path from → … → to as the list of
// edges traversed, or nil when no path or more than one path exists (the
// ambiguous case where inference must give up). from == to yields an empty
// (non-nil) path. Search depth is bounded.
func (g *tailCallGraph) inferPath(from, to string) []*tailEdge {
	if from == to {
		return []*tailEdge{}
	}
	const maxDepth = 8
	var found [][]*tailEdge
	var path []*tailEdge
	onPath := map[string]bool{from: true}

	var dfs func(cur string, depth int)
	dfs = func(cur string, depth int) {
		if len(found) > 1 || depth > maxDepth {
			return
		}
		succs := g.edges[cur]
		keys := make([]string, 0, len(succs))
		for k := range succs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, next := range keys {
			if onPath[next] {
				continue
			}
			e := succs[next]
			path = append(path, e)
			if next == to {
				found = append(found, append([]*tailEdge(nil), path...))
			} else {
				onPath[next] = true
				dfs(next, depth+1)
				delete(onPath, next)
			}
			path = path[:len(path)-1]
			if len(found) > 1 {
				return
			}
		}
	}
	dfs(from, 0)
	if len(found) == 1 {
		return found[0]
	}
	return nil
}
