package ir

// CFGChecksum computes a checksum over the *shape* of the function's
// control-flow graph: block count, edge structure, and the sequence of call
// targets. It deliberately excludes source line numbers and non-call
// instruction payloads so that source edits that do not change control flow
// (comments, renames of unrelated code above the function) leave the
// checksum intact, while any CFG change — the paper's staleness signal —
// perturbs it.
func (f *Function) CFGChecksum() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
		mix(0xff)
	}
	// Index blocks by position for stable edge encoding.
	idx := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	mix(uint64(len(f.Blocks)))
	for i, b := range f.Blocks {
		mix(uint64(i))
		mix(uint64(b.Term.Kind))
		for _, s := range b.Term.Succs {
			mix(uint64(idx[s]))
		}
		for _, c := range b.Term.Cases {
			mix(uint64(c))
		}
		ncalls := 0
		for j := range b.Instrs {
			if b.Instrs[j].Op == OpCall {
				ncalls++
				mixStr(b.Instrs[j].Sym())
			}
		}
		mix(uint64(ncalls))
	}
	return h
}
