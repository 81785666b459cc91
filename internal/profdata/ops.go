package profdata

// This file implements whole-profile transformations: merging context
// profiles down to base profiles, cold-context trimming (the paper's
// mitigation for the ~10x context-sensitive profile blowup on dense call
// graphs), and flattening.

// MergeContextIntoBase folds one context profile into the base profile of
// its leaf function and removes it from the context table.
func (p *Profile) MergeContextIntoBase(key string) {
	fp := p.Contexts[key]
	if fp == nil {
		return
	}
	base := p.FuncProfile(fp.Name)
	if base.Checksum == 0 {
		base.Checksum = fp.Checksum
	}
	base.Merge(fp)
	delete(p.Contexts, key)
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
// the text/binary encoders iterate maps in sorted order, so the merged
// profile serializes byte-identically for any shard count — including the
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
