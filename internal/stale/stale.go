// Package stale implements anchor-based stale-profile matching, after
// "Stale Profile Matching" (Ayupov, Panchenko, Pupyrev). When a function's
// CFG checksum no longer matches its profile, the profile is not discarded:
// both versions are reduced to an *anchor sequence* — the function's probes
// in CFG order, call probes tagged with their static callee — and the two
// sequences are aligned with a weighted longest-common-subsequence. Callee
// names survive most edits, so call anchors pin the alignment and block
// anchors interpolate between them. Counts at matched anchors transfer into
// the new probe-ID space, scaled by the alignment's match quality so weakly
// matched profiles carry proportionally less authority.
package stale

import (
	"sort"

	"csspgo/internal/ir"
	"csspgo/internal/profdata"
)

// anchorKind distinguishes the two probe flavors used as anchors.
type anchorKind uint8

// anchor kinds.
const (
	block anchorKind = iota
	call
)

// anchor is one alignment unit: a probe in its version's ID space. For call
// anchors, Callee is the static callee name — the version-stable signal the
// alignment keys on — or "" for indirect calls, which match any callee.
type anchor struct {
	Kind   anchorKind
	ID     int32
	Callee string
}

// MinQuality is the match quality below which the alignment is rejected
// and the caller should fall back down the degradation ladder.
const MinQuality = 0.5

// callWeight is the alignment weight of a call anchor relative to a block
// anchor (weight 1): callee names are far stronger evidence of identity
// than bare block order.
const callWeight = 4

// maxDPCells caps the alignment table size (old anchors × new anchors);
// larger problems skip matching rather than stall compilation.
const maxDPCells = 1 << 22

// MatcherStats counts match attempts across one matcher's lifetime (one
// compilation) — the stale.match.* slice of the unified metric namespace.
type MatcherStats struct {
	Attempts        int // Match calls
	Accepted        int // alignments clearing MinQuality
	Rejected        int // alignments below MinQuality (or with no anchors)
	RecoveredProbes int // old probe IDs whose nonzero counts transferred
}

// Matcher aligns stale function profiles against fresh IR.
type Matcher struct {
	Stats MatcherStats
}

// NewMatcher returns a matcher with zeroed stats.
func NewMatcher() *Matcher { return &Matcher{} }

// Result reports one match attempt. Profile is non-nil iff OK: the input
// profile remapped into f's probe-ID space, counts scaled by Quality, and
// marked Approx.
type Result struct {
	OK      bool
	Quality float64 // matched anchor weight / old anchor weight, in [0,1]

	Profile *profdata.FunctionProfile

	MatchedAnchors  int
	OldAnchors      int
	NewAnchors      int
	RecoveredProbes int // old probe IDs whose nonzero counts transferred
}

// anchorsFromIR extracts the anchor sequence of a freshly probed function:
// its own (non-inlined) probes in ID order, which is the order probe
// insertion walked the CFG.
func anchorsFromIR(f *ir.Function) []anchor {
	var out []anchor
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Probe == nil || in.Probe.Func != f.Name || in.Probe.InlinedAt != nil {
				continue
			}
			switch in.Probe.Kind {
			case ir.ProbeBlock:
				out = append(out, anchor{Kind: block, ID: in.Probe.ID})
			case ir.ProbeCall:
				callee := ""
				if in.Op == ir.OpCall {
					callee = in.Callee
				}
				out = append(out, anchor{Kind: call, ID: in.Probe.ID, Callee: callee})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// anchorsFromProfile reconstructs the anchor sequence the profiled binary
// had, from the profile alone: every sampled probe ID, call anchors carrying
// the dominant observed callee. Probe IDs were assigned in CFG order, so
// sorting by ID recovers the original sequence. Zero-sample probes are
// invisible here — quality is therefore coverage of the *sampled* anchors,
// which are exactly the ones whose counts matter.
func anchorsFromProfile(fp *profdata.FunctionProfile) []anchor {
	byID := map[int32]anchor{}
	for loc := range fp.Blocks {
		if loc.Disc != 0 {
			continue // not a probe key
		}
		if _, ok := byID[loc.ID]; !ok {
			byID[loc.ID] = anchor{Kind: block, ID: loc.ID}
		}
	}
	for loc, targets := range fp.Calls {
		if loc.Disc != 0 {
			continue
		}
		byID[loc.ID] = anchor{Kind: call, ID: loc.ID, Callee: dominantCallee(targets)}
	}
	out := make([]anchor, 0, len(byID))
	for _, a := range byID {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// dominantCallee picks the hottest target (ties to the lexicographically
// smallest, for determinism).
func dominantCallee(targets map[string]uint64) string {
	best, bestN := "", uint64(0)
	for callee, n := range targets {
		if n > bestN || (n == bestN && (best == "" || callee < best)) {
			best, bestN = callee, n
		}
	}
	return best
}

// anchorsCompatible says whether two anchors may align: same kind, and for
// calls the same callee — with "" (an indirect site) matching any target.
func anchorsCompatible(a, b anchor) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == call {
		return a.Callee == b.Callee || a.Callee == "" || b.Callee == ""
	}
	return true
}

func weight(a anchor) int {
	if a.Kind == call {
		return callWeight
	}
	return 1
}

// align computes the maximum-weight common subsequence of the two anchor
// sequences and returns the matched index pairs (old, new), in order.
func align(old, new []anchor) [][2]int {
	n, k := len(old), len(new)
	if n == 0 || k == 0 || n*k > maxDPCells {
		return nil
	}
	// dp[i*(k+1)+j]: best weight aligning old[i:] with new[j:].
	dp := make([]int32, (n+1)*(k+1))
	for i := n - 1; i >= 0; i-- {
		for j := k - 1; j >= 0; j-- {
			best := dp[(i+1)*(k+1)+j]
			if d := dp[i*(k+1)+j+1]; d > best {
				best = d
			}
			if anchorsCompatible(old[i], new[j]) {
				if d := dp[(i+1)*(k+1)+j+1] + int32(weight(old[i])); d > best {
					best = d
				}
			}
			dp[i*(k+1)+j] = best
		}
	}
	var pairs [][2]int
	for i, j := 0, 0; i < n && j < k; {
		switch {
		case anchorsCompatible(old[i], new[j]) &&
			dp[i*(k+1)+j] == dp[(i+1)*(k+1)+j+1]+int32(weight(old[i])):
			pairs = append(pairs, [2]int{i, j})
			i++
			j++
		case dp[i*(k+1)+j] == dp[(i+1)*(k+1)+j]:
			i++
		default:
			j++
		}
	}
	return pairs
}

// Match aligns a stale profile against the current IR of f. The returned
// Result always carries the computed Quality (for diagnostics); Profile is
// populated only when the quality clears MinQuality.
func (m *Matcher) Match(f *ir.Function, fp *profdata.FunctionProfile) *Result {
	res := match(f, fp)
	m.Stats.Attempts++
	if res.OK {
		m.Stats.Accepted++
		m.Stats.RecoveredProbes += res.RecoveredProbes
	} else {
		m.Stats.Rejected++
	}
	return res
}

func match(f *ir.Function, fp *profdata.FunctionProfile) *Result {
	old := anchorsFromProfile(fp)
	fresh := anchorsFromIR(f)
	res := &Result{OldAnchors: len(old), NewAnchors: len(fresh)}
	if len(old) == 0 || len(fresh) == 0 {
		return res
	}
	pairs := align(old, fresh)
	oldWeight, oldCalls := 0, 0
	for _, a := range old {
		oldWeight += weight(a)
		if a.Kind == call {
			oldCalls++
		}
	}
	matchedWeight, matchedCalls := 0, 0
	for _, pr := range pairs {
		matchedWeight += weight(old[pr[0]])
		if old[pr[0]].Kind == call {
			matchedCalls++
		}
	}
	res.MatchedAnchors = len(pairs)
	res.Quality = float64(matchedWeight) / float64(oldWeight)
	// A profile with sampled call sites but no call agreement is aligned on
	// block order alone — too weak to trust regardless of block coverage.
	if oldCalls > 0 && matchedCalls == 0 {
		res.Quality = 0
	}
	if res.Quality < MinQuality {
		return res
	}

	out := profdata.NewFunctionProfile(fp.Name)
	out.Context = append(profdata.Context(nil), fp.Context...)
	out.Checksum = f.Checksum // counts now live in f's ID space
	out.ShouldInline = fp.ShouldInline
	out.Approx = true
	out.HeadSamples = fp.HeadSamples
	for _, pr := range pairs {
		oldLoc := profdata.LocKey{ID: old[pr[0]].ID}
		newLoc := profdata.LocKey{ID: fresh[pr[1]].ID}
		recovered := false
		if n := fp.Blocks[oldLoc]; n > 0 {
			out.AddBody(newLoc, n)
			recovered = true
		}
		for callee, n := range fp.Calls[oldLoc] {
			out.AddCall(newLoc, callee, n)
			recovered = recovered || n > 0
		}
		if recovered {
			res.RecoveredProbes++
		}
	}
	// Confidence scaling: a 70%-quality match keeps 70% of its authority, so
	// downstream hotness thresholds treat approximate counts conservatively.
	den := uint64(1024)
	num := uint64(res.Quality*float64(den) + 0.5)
	if num < den {
		out.Scale(num, den)
	}
	res.OK = true
	res.Profile = out
	return res
}
