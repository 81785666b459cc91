package ir

import (
	"math/rand"
	"testing"
)

// The map-keyed dominator computation and the idom-chain walk that
// DomTree replaced, kept as the test oracle.

// referenceDominators is Function.Dominators as it stood before DomTree:
// each reachable block's immediate dominator, the entry mapping to itself.
func referenceDominators(f *Function) map[*Block]*Block {
	rpo := f.ReachableOrder()
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	f.RebuildCFG()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if _, ok := idom[p]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom == nil {
				continue
			}
			if idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// referenceDominates is ir.Dominates as it stood: a walk up b's idom chain.
func referenceDominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return a == b
		}
		b = next
	}
}

// CheckDomTree holds f.DomTree() to the reference on every block and every
// pair of blocks of f: same reachable set, same immediate dominators, same
// dominance relation; blocks outside the tree dominate nothing and are
// dominated by nothing. Exported to the corpus test in package ir_test.
func CheckDomTree(t testing.TB, f *Function) {
	t.Helper()
	want := referenceDominators(f)
	dt := f.DomTree()
	for _, a := range f.Blocks {
		wantIdom, reachable := want[a]
		if dt.Reachable(a) != reachable || dt.idomOf(a) != wantIdom {
			t.Errorf("%s b%d: reachable %v idom %v, reference says %v %v",
				f.Name, a.ID, dt.Reachable(a), dt.idomOf(a), reachable, wantIdom)
		}
		for _, b := range f.Blocks {
			_, bReachable := want[b]
			wantDom := reachable && bReachable && referenceDominates(want, a, b)
			if got := dt.Dominates(a, b); got != wantDom {
				t.Errorf("%s: Dominates(b%d, b%d) = %v, reference says %v", f.Name, a.ID, b.ID, got, wantDom)
			}
		}
	}
}

// randomCFG builds n blocks with random jumps, branches, switches and
// returns: loops, irreducible regions, edges back to the entry and blocks
// nothing reaches all occur. Some blocks are then dropped from the middle
// of f.Blocks, so block IDs are sparse and out of position order.
func randomCFG(rng *rand.Rand, n int) *Function {
	f := NewFunction("r", []string{"a"})
	for i := 1; i < n; i++ {
		f.NewBlock()
	}
	pick := func() *Block { return f.Blocks[rng.Intn(n)] }
	for _, b := range f.Blocks {
		switch rng.Intn(6) {
		case 0:
			b.Term = Terminator{Kind: TermReturn, Val: NoReg}
		case 1, 2:
			b.Term = Terminator{Kind: TermJump, Succs: []*Block{pick()}}
		case 3, 4:
			b.Term = Terminator{Kind: TermBranch, Cond: 0, Succs: []*Block{pick(), pick()}}
		case 5:
			b.Term = Terminator{Kind: TermSwitch, Cond: 0, Cases: []int64{1, 2}, Succs: []*Block{pick(), pick(), pick()}}
		}
	}
	// Drop blocks no edge targets (entry stays), leaving holes in the IDs.
	targeted := map[*Block]bool{f.Entry(): true}
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs {
			targeted[s] = true
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if targeted[b] || rng.Intn(2) == 0 {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	rng.Shuffle(len(f.Blocks)-1, func(i, j int) {
		f.Blocks[i+1], f.Blocks[j+1] = f.Blocks[j+1], f.Blocks[i+1]
	})
	f.RebuildCFG()
	return f
}

func TestDomTreeMatchesReferenceOnRandomCFGs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		f := randomCFG(rng, 1+rng.Intn(40))
		if err := f.Verify(); err != nil {
			t.Fatalf("cfg %d does not verify: %v", i, err)
		}
		CheckDomTree(t, f)
		if t.Failed() {
			t.Fatalf("cfg %d:\n%s", i, f)
		}
	}
}

// referenceReachableOrder is ReachableOrder as it stood before it walked
// with an explicit stack over a block-ID table: a recursive closure over a
// map keyed by block.
func referenceReachableOrder(f *Function) []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Term.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// CheckReachableOrder holds f.ReachableOrder() to the reference: the same
// blocks in the same order. Exported to the corpus test in package ir_test.
func CheckReachableOrder(t testing.TB, f *Function) {
	t.Helper()
	want, got := referenceReachableOrder(f), f.ReachableOrder()
	if len(got) != len(want) {
		t.Errorf("%s: ReachableOrder has %d blocks, reference says %d", f.Name, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: ReachableOrder[%d] = b%d, reference says b%d", f.Name, i, got[i].ID, want[i].ID)
			return
		}
	}
}

func TestReachableOrderMatchesReferenceOnRandomCFGs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		f := randomCFG(rng, 1+rng.Intn(40))
		CheckReachableOrder(t, f)
		if t.Failed() {
			t.Fatalf("cfg %d:\n%s", i, f)
		}
	}
}

// idomOf returns b's immediate dominator: the entry block for itself, nil
// for a block outside the tree.
func (t *DomTree) idomOf(b *Block) *Block {
	if !t.Reachable(b) {
		return nil
	}
	return t.idom[b.ID]
}
