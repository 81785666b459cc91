package profdata

import (
	"slices"
	"sort"
	"strings"
)

// This file implements whole-profile transformations: merging context
// profiles down to base profiles, context promotion, cold-context trimming
// (the paper's mitigation for the ~10x context-sensitive profile blowup on
// dense call graphs), and flattening.

// MergeContextIntoBase folds one context profile into the base profile of
// its leaf function and removes it from the context table. When the leaf
// has no base profile yet, the context profile becomes it: moved, not
// copied.
func (p *Profile) MergeContextIntoBase(key string) {
	fp := p.Contexts[key]
	if fp == nil {
		return
	}
	delete(p.Contexts, key)
	if base := p.Funcs[fp.Name]; base != nil {
		base.Merge(fp)
		return
	}
	fp.Context, fp.ShouldInline = nil, false
	fp.dropZeroCalls()
	p.Funcs[fp.Name] = fp
}

// RootedAt returns, in key order, the keys of the contexts whose outermost
// frame is fn: the contexts a call made from fn can inline, and the ones
// promoted when fn is done with them.
func (p *Profile) RootedAt(fn string) []string {
	var out []string
	for key, cp := range p.Contexts {
		if cp.Context[0].Func == fn {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Promote folds the context under key one frame toward its leaf, the step
// both Algorithm 2's pre-inliner and the compile-time sample inliner take
// for a context whose outermost call was not inlined: "A:1 @ B:2 @ C"
// merges into "B:2 @ C", and a depth-2 context into its leaf's base
// profile. The shorter context keeps ShouldInline if either side had it.
// Promote returns the function whose base profile received the counts, or
// "" when they stayed in a context (or key named none).
//
// When the shorter context is not in the profile yet, the context profile
// moves there instead of being merged into a fresh copy: its key is the
// suffix of key after the first " @ " (keys are canonical), its Context
// the tail of its own.
func (p *Profile) Promote(key string) (base string) {
	cp := p.Contexts[key]
	if cp == nil {
		return ""
	}
	if cp.Context.Depth() <= 2 {
		p.MergeContextIntoBase(key)
		return cp.Name
	}
	delete(p.Contexts, key)
	shorter := key[strings.Index(key, " @ ")+len(" @ "):]
	if dst := p.Contexts[shorter]; dst != nil {
		dst.ShouldInline = dst.ShouldInline || cp.ShouldInline
		dst.Merge(cp)
		return ""
	}
	cp.Context = cp.Context[1:]
	cp.dropZeroCalls()
	p.Contexts[shorter] = cp
	return ""
}

// dropZeroCalls deletes the zero-count call records that Merge does not
// carry over (AddCall ignores a zero count), so a moved profile reads as a
// merged copy of it would.
func (fp *FunctionProfile) dropZeroCalls() {
	fp.Calls = slices.DeleteFunc(fp.Calls, func(c CallCount) bool { return c.N == 0 })
	if len(fp.Calls) == 0 {
		fp.Calls = nil
	}
}

// flatten merges every context profile into base profiles, producing a
// fully context-insensitive view (what AutoFDO would have seen). The
// receiver is modified in place.
func (p *Profile) flatten() {
	for _, key := range p.SortedContextKeys() {
		p.MergeContextIntoBase(key)
	}
	p.CS = false
}

// Flat returns the context-insensitive view of the profile without
// touching it: the receiver itself when it is already flat, otherwise a
// flattened clone. Callers treat the result as read-only.
func (p *Profile) Flat() *Profile {
	if !p.CS {
		return p
	}
	q := p.Clone()
	q.flatten()
	return q
}

// TrimColdContexts merges into base every context whose total samples fall
// below threshold, keeping context-sensitivity only for hot contexts. Cold
// functions are unlikely to be inlined, so their specialized profiles buy
// nothing (§III.B "Scalability"). Returns the number of contexts trimmed.
func (p *Profile) TrimColdContexts(threshold uint64) int {
	n := 0
	for _, key := range p.SortedContextKeys() {
		fp := p.Contexts[key]
		if fp.TotalSamples < threshold {
			p.MergeContextIntoBase(key)
			n++
		}
	}
	return n
}

// HotThresholdForBudget picks the smallest trim threshold that brings the
// number of retained contexts under budget. It answers "trim until the CS
// profile is comparable in size to a regular profile".
func (p *Profile) HotThresholdForBudget(budget int) uint64 {
	if len(p.Contexts) <= budget {
		return 0
	}
	totals := make([]uint64, 0, len(p.Contexts))
	for _, fp := range p.Contexts {
		totals = append(totals, fp.TotalSamples)
	}
	// Select the budget-th largest total: keep contexts strictly above.
	// Simple insertion into a bounded slice keeps this dependency-free.
	top := make([]uint64, 0, budget+1)
	for _, t := range totals {
		pos := len(top)
		for pos > 0 && top[pos-1] < t {
			pos--
		}
		if pos < budget {
			top = append(top, 0)
			copy(top[pos+1:], top[pos:])
			top[pos] = t
			if len(top) > budget {
				top = top[:budget]
			}
		}
	}
	if len(top) == 0 {
		return 0
	}
	return top[len(top)-1] + 1
}

// Clone deep-copies the whole profile.
func (p *Profile) Clone() *Profile {
	out := &Profile{
		Kind:     p.Kind,
		CS:       p.CS,
		Funcs:    make(map[string]*FunctionProfile, len(p.Funcs)),
		Contexts: make(map[string]*FunctionProfile, len(p.Contexts)),
	}
	for name, fp := range p.Funcs {
		out.Funcs[name] = fp.Clone()
	}
	for key, fp := range p.Contexts {
		out.Contexts[key] = fp.Clone()
	}
	return out
}

// MergeShards deterministically reduces per-worker profile shards into one
// profile by folding them in shard-index order. Every count is a sum and
// every profile keeps its records sorted, so the merged profile
// serializes byte-identically for any shard count — including the
// single-shard (serial) case. The first shard is reused as the
// accumulator; returns nil for an empty shard list.
func MergeShards(shards []*Profile) *Profile {
	if len(shards) == 0 {
		return nil
	}
	dst := shards[0]
	if len(shards) > 1 {
		// Pre-size the accumulator maps for the union of all shards (the
		// sum is an upper bound) so the fold never rehashes mid-merge.
		nf, nc := 0, 0
		for _, s := range shards {
			nf += len(s.Funcs)
			nc += len(s.Contexts)
		}
		if nf > len(dst.Funcs) {
			funcs := make(map[string]*FunctionProfile, nf)
			for k, v := range dst.Funcs {
				funcs[k] = v
			}
			dst.Funcs = funcs
		}
		if nc > len(dst.Contexts) {
			ctxs := make(map[string]*FunctionProfile, nc)
			for k, v := range dst.Contexts {
				ctxs[k] = v
			}
			dst.Contexts = ctxs
		}
	}
	for _, src := range shards[1:] {
		MergeProfiles(dst, src)
	}
	return dst
}

// MergeProfiles accumulates src into dst (profiles from multiple profiling
// shards of the same binary).
func MergeProfiles(dst, src *Profile) {
	for name, fp := range src.Funcs {
		if cur, ok := dst.Funcs[name]; ok {
			cur.Merge(fp)
		} else {
			dst.Funcs[name] = fp.Clone()
		}
	}
	for key, fp := range src.Contexts {
		if cur, ok := dst.Contexts[key]; ok {
			cur.Merge(fp)
		} else {
			dst.Contexts[key] = fp.Clone()
		}
	}
}
