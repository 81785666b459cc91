package opt

import "csspgo/internal/ir"

// simplifyResult reports what simplifyCFG did.
type simplifyResult struct {
	Merged           int // straight-line chains collapsed
	EmptyRemoved     int
	TailMerges       int
	TailMergeBlocked int // merges prevented by probe/counter barriers
}

// simplifyPass merges chains and removes empty blocks, folding weights in
// ways that do not keep edge flows conserved.
var simplifyPass = registerPass("simplify-cfg", flowPerturbs, semRestructures)

// simplifyCFG collapses straight-line chains, removes trivially empty
// blocks and — when enabled — merges identical block tails (the code-merge
// optimization the paper names as a profile-quality hazard). barrier
// controls whether probes block tail merging: with BarrierWeak or
// BarrierStrong, blocks whose tails differ only by probe identity do not
// merge (the probes' distinct signatures preserve original control flow).
func simplifyCFG(f *ir.Function, tailMerge bool, barrier BarrierStrength) simplifyResult {
	var res simplifyResult
	for {
		changed := false
		f.RebuildCFG()

		// 1. Merge A → B where A jumps to B and B has exactly one pred.
		for _, a := range f.Blocks {
			for a.Term.Kind == ir.TermJump {
				b := a.Term.Succs[0]
				if b == a || len(b.Preds) != 1 || b == f.Entry() {
					break
				}
				a.Instrs = append(a.Instrs, b.Instrs...)
				a.Term = b.Term
				// Weight: the chain executes as one; keep A's weight.
				b.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
				b.Instrs = nil
				removeBlock(f, b)
				f.RebuildCFG()
				res.Merged++
				changed = true
			}
		}

		// 2. Remove empty forwarding blocks (nothing but a jump).
		for _, b := range f.Blocks {
			if b == f.Entry() || b.Term.Kind != ir.TermJump || len(b.Instrs) != 0 {
				continue
			}
			tgt := b.Term.Succs[0]
			if tgt == b {
				continue
			}
			for _, p := range b.Preds {
				p.ReplaceSucc(b, tgt)
			}
			removeBlock(f, b)
			f.RebuildCFG()
			res.EmptyRemoved++
			changed = true
		}

		// 3. Tail merging.
		if tailMerge {
			tm, blocked := tailMergePass(f, barrier)
			res.TailMerges += tm
			res.TailMergeBlocked += blocked
			if tm > 0 {
				changed = true
			}
		}

		if !changed {
			break
		}
	}
	f.RemoveUnreachable()
	return res
}

func removeBlock(f *ir.Function, b *ir.Block) {
	for i, bb := range f.Blocks {
		if bb == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// instrsSemanticallyEqual compares instructions ignoring debug locations —
// exactly the equivalence a binary-level tail merger sees. Probe payloads
// DO participate: two probes with different IDs are different instructions,
// which is how pseudo-instrumentation blocks the merge.
func instrsSemanticallyEqual(a, b *ir.Instr) bool {
	if a.Op != b.Op || a.Dst != b.Dst || a.A != b.A || a.B != b.B || a.C != b.C {
		return false
	}
	if a.BinKind != b.BinKind || a.Value != b.Value || a.Callee != b.Callee ||
		a.Global != b.Global || a.Index != b.Index || a.TailCall != b.TailCall {
		return false
	}
	pa, pb := a.Probe, b.Probe
	if (pa == nil) != (pb == nil) {
		return false
	}
	if pa != nil && (pa.Func != pb.Func || pa.ID != pb.ID || pa.Kind != pb.Kind) {
		return false
	}
	return true
}

// probeInsensitiveEqual compares ignoring probes entirely (what a merger
// sees when no probes exist, or when it is allowed to discard them).
func probeInsensitiveEqual(a, b *ir.Instr) bool {
	ca, cb := *a, *b
	ca.Probe, cb.Probe = nil, nil
	ca.Loc, cb.Loc = nil, nil
	return instrsSemanticallyEqual(&ca, &cb)
}

// tailMergePass merges identical instruction suffixes of sibling blocks
// that jump to the same successor. With a probe barrier active, suffixes
// containing probes never match across blocks (IDs differ), so the merge is
// blocked — counted separately so experiments can report it.
func tailMergePass(f *ir.Function, barrier BarrierStrength) (merges, blocked int) {
	f.RebuildCFG()
	// Group candidate blocks by their unique jump target.
	groups := map[*ir.Block][]*ir.Block{}
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermJump && len(b.Instrs) > 0 {
			t := b.Term.Succs[0]
			groups[t] = append(groups[t], b)
		}
	}
	// Targets in function block order, not map order: the first mergeable
	// group found is the one merged, and the merge order names the blocks.
	for _, target := range f.Blocks {
		siblings := groups[target]
		if len(siblings) < 2 {
			continue
		}
		// Pairwise merge of the first matching pair (iteration restarts).
		for i := 0; i < len(siblings); i++ {
			for j := i + 1; j < len(siblings); j++ {
				a, b := siblings[i], siblings[j]
				n := commonSuffix(a, b, instrsSemanticallyEqual)
				// Probes at block heads carry distinct IDs, so the
				// semantic common suffix always stops short of a full
				// block merge; count how often probes limited the merge.
				if barrier != BarrierNone && commonSuffix(a, b, probeInsensitiveEqual) > n {
					blocked++
				}
				if n == 0 {
					continue
				}
				// Move the shared suffix into a new block M.
				m := f.NewBlock()
				m.Instrs = append(m.Instrs, a.Instrs[len(a.Instrs)-n:]...)
				m.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{target}}
				m.Weight = a.Weight + b.Weight
				m.HasWeight = a.HasWeight || b.HasWeight
				a.Instrs = truncate(a.Instrs, len(a.Instrs)-n)
				b.Instrs = truncate(b.Instrs, len(b.Instrs)-n)
				a.Term.Succs[0] = m
				b.Term.Succs[0] = m
				f.RebuildCFG()
				return 1, blocked
			}
		}
	}
	return 0, blocked
}

// commonSuffix counts the longest common instruction suffix under eq.
func commonSuffix(a, b *ir.Block, eq func(x, y *ir.Instr) bool) int {
	n := 0
	for n < len(a.Instrs) && n < len(b.Instrs) {
		x := &a.Instrs[len(a.Instrs)-1-n]
		y := &b.Instrs[len(b.Instrs)-1-n]
		if !eq(x, y) {
			break
		}
		n++
	}
	return n
}
