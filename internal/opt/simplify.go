package opt

import (
	"slices"

	"csspgo/internal/ir"
)

// simplifyResult reports what simplifyCFG did.
type simplifyResult struct {
	Merged           int // straight-line chains collapsed
	EmptyRemoved     int
	TailMerges       int
	TailMergeBlocked int // merges a probe/counter barrier shortened or prevented, one per pair
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
func (ws *workspace) simplifyCFG(f *ir.Function, tailMerge bool, barrier BarrierStrength) simplifyResult {
	var res simplifyResult
	for {
		changed := false
		// The one rebuild of the round: each step below keeps the lists
		// right as it rewrites edges, and tail merging reads none.
		f.RebuildCFG()

		// 1. Merge A → B where A jumps to B and B has exactly one pred.
		// A merge moves B's out-edges to A and so leaves every other
		// block's in-degree as it was: the chain A → B → … that collapses
		// into A is known up front, and A is sized for all of it once.
		for _, a := range f.Blocks {
			n := len(a.Instrs)
			for x := chainNext(f, a, a); x != nil; x = chainNext(f, a, x) {
				n += len(x.Instrs)
			}
			if n > cap(a.Instrs) {
				a.Instrs = append(make([]ir.Instr, 0, n), a.Instrs...)
			}
			for b := chainNext(f, a, a); b != nil; b = chainNext(f, a, a) {
				a.Instrs = append(a.Instrs, b.Instrs...)
				a.Term = b.Term
				for _, s := range a.Term.Succs {
					replacePred(s, b, a)
				}
				// Weight: the chain executes as one; keep A's weight.
				ws.markRemoved(b)
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
			// Only tgt's list changes: b's edge leaves it, b's preds' join.
			tgt.Preds = append(slices.DeleteFunc(tgt.Preds, func(p *ir.Block) bool { return p == b }), b.Preds...)
			ws.markRemoved(b)
			res.EmptyRemoved++
			changed = true
		}
		ws.dropMarked(f) // what steps 1 and 2 removed, at once

		// 3. Tail merging.
		if tailMerge {
			tm, blocked := ws.tailMergePass(f, barrier)
			// A pair the barrier keeps apart counts at the fixed point.
			if tm > 0 || !changed {
				res.TailMergeBlocked += blocked
			}
			res.TailMerges += tm
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

// chainNext returns the block that merges into a after x, the last block
// of a's chain so far: x's jump target, when a is not it, it is not the
// entry and x is its only predecessor.
func chainNext(f *ir.Function, a, x *ir.Block) *ir.Block {
	if x.Term.Kind != ir.TermJump {
		return nil
	}
	b := x.Term.Succs[0]
	if b == a || len(b.Preds) != 1 || b == f.Entry() {
		return nil
	}
	return b
}

// replacePred makes every old in s's predecessor list new.
func replacePred(s, old, new *ir.Block) {
	for i, p := range s.Preds {
		if p == old {
			s.Preds[i] = new
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
	if a.BinKind != b.BinKind || a.Value != b.Value || a.Sym() != b.Sym() ||
		!slices.Equal(a.Args(), b.Args()) || a.Index != b.Index || a.TailCall != b.TailCall {
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
// blocked — counted separately so experiments can report it: 1 for a merge
// the barrier shortened, or every pair it kept apart in a round that merges
// nothing. It reads no predecessor lists and leaves them stale;
// simplifyCFG's next round rebuilds them.
func (ws *workspace) tailMergePass(f *ir.Function, barrier BarrierStrength) (merges, blocked int) {
	// Group candidate blocks by their unique jump target: a counting sort
	// by the target's position, which keeps each group in block order.
	pos := ws.positions(f)
	s := &ws.tails
	nb := len(f.Blocks)
	start := slices.Grow(s.start[:0], nb+1)[:nb+1]
	clear(start)
	candidates := 0
	targetPos := func(b *ir.Block) int32 {
		if b.Term.Kind != ir.TermJump || len(b.Instrs) == 0 {
			return -1
		}
		return position(pos, b.Term.Succs[0])
	}
	for _, b := range f.Blocks {
		if t := targetPos(b); t >= 0 {
			start[t+1]++
			candidates++
		}
	}
	for t := range nb {
		start[t+1] += start[t]
	}
	grouped := slices.Grow(s.grouped[:0], candidates)[:candidates]
	fill := slices.Grow(s.fill[:0], nb)[:nb]
	copy(fill, start)
	for _, b := range f.Blocks {
		if t := targetPos(b); t >= 0 {
			grouped[fill[t]] = b
			fill[t]++
		}
	}
	s.start, s.grouped, s.fill = start, grouped, fill
	// Targets in function block order: the first mergeable group found is
	// the one merged, and the merge order names the blocks.
	for t, target := range f.Blocks {
		siblings := grouped[start[t]:start[t+1]]
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
				// block merge.
				shortened := barrier != BarrierNone && commonSuffix(a, b, probeInsensitiveEqual) > n
				if n == 0 {
					if shortened {
						blocked++
					}
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
				if shortened {
					return 1, 1
				}
				return 1, 0
			}
		}
	}
	return 0, blocked
}

// tailScratch is tailMergePass's storage: the candidate blocks grouped by
// jump target, the group of the target at position t being
// grouped[start[t]:start[t+1]].
type tailScratch struct {
	start   []int32
	fill    []int32
	grouped []*ir.Block
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
