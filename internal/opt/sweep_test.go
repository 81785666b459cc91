package opt

import (
	"slices"
	"testing"

	"csspgo/internal/ir"
)

// TestSimplifyRemovesEachForwardingBlockOnce is the CFG on which cutting
// forwarding blocks out of the block list being swept made the sweep visit
// the second one twice: the entry branches to two empty forwarding blocks
// that both jump to one return block, and the second forwarding block is
// last. Each is removed once, and the return block keeps one entry per
// edge of the entry block.
func TestSimplifyRemovesEachForwardingBlockOnce(t *testing.T) {
	f := ir.NewFunction("f", []string{"a"})
	f.NRegs = 1
	b0 := f.Entry()
	b1, ret, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Term = ir.Terminator{Kind: ir.TermBranch, Cond: 0, Succs: []*ir.Block{b1, b2}}
	b1.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{ret}}
	ret.Term = ir.Terminator{Kind: ir.TermReturn, Val: 0}
	b2.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{ret}}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	res := simplifyCFG(f, false, BarrierNone)
	if res.EmptyRemoved != 2 || res.Merged != 0 {
		t.Fatalf("removed %d forwarding blocks and merged %d chains, want 2 and 0:\n%s", res.EmptyRemoved, res.Merged, f)
	}
	if !slices.Equal(f.Blocks, []*ir.Block{b0, ret}) {
		t.Fatalf("blocks left:\n%s", f)
	}
	if !slices.Equal(b0.Term.Succs, []*ir.Block{ret, ret}) || !slices.Equal(ret.Preds, []*ir.Block{b0, b0}) {
		t.Fatalf("entry's successors %v, return block's predecessors %v, want the entry's two edges once each:\n%s", b0.Term.Succs, ret.Preds, f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteSitesRescansAfterARewrite pins the restart of the call-site
// scan: inlining the first call splits its block, and the second call,
// which followed it in that block, moves to the join block the inline
// appends. Only a scan that starts again from the first block after each
// rewrite finds it.
func TestRewriteSitesRescansAfterARewrite(t *testing.T) {
	p := lower(t, `
func inc(x) { return x + 1; }
func main(a) {
	var y = inc(a);
	var z = inc(y);
	return z;
}`, false)
	f := p.Funcs["main"]
	if len(f.Blocks) != 1 {
		t.Fatalf("want both calls in one block:\n%s", f)
	}
	if n := bottomUpInline(p, new(ir.CallGraphScratch), defaultInlineParams(), false); n != 2 {
		t.Fatalf("inlined %d calls, want 2:\n%s", n, f)
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				t.Fatalf("b%d keeps a call:\n%s", b.ID, f)
			}
		}
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTailMergeCountsEachBlockedPairOnce: the probed arms of tailMergeSrc
// merge their common tail, which the arms' probes shortened (1), and their
// probe-only remnants, which the probes keep apart, count at the fixed
// point (1) — not once more for every round simplify-cfg takes to get
// there.
func TestTailMergeCountsEachBlockedPairOnce(t *testing.T) {
	for _, c := range []struct {
		barrier BarrierStrength
		blocked int
	}{{BarrierNone, 0}, {BarrierWeak, 2}} {
		f := lower(t, tailMergeSrc, true).Funcs["main"]
		res := simplifyCFG(f, true, c.barrier)
		if res.TailMerges != 1 || res.TailMergeBlocked != c.blocked {
			t.Errorf("barrier %v: %d tail merges, %d blocked, want 1 and %d:\n%s", c.barrier, res.TailMerges, res.TailMergeBlocked, c.blocked, f)
		}
	}
}

// TestIfConvertCountsEachBlockedDiamondOnce: under the instrumentation
// barrier, the first of two diamonds keeps its arms' probes and stays, and
// the second, whose arms have none, converts. The one that stays counts
// once, in the sweep that converts nothing.
func TestIfConvertCountsEachBlockedDiamondOnce(t *testing.T) {
	f := lower(t, `
func main(a, b) {
	var x = 0;
	var y = 0;
	if (a > 0) { x = a + 1; } else { x = a - 1; }
	if (b > 0) { y = b + 1; } else { y = b - 1; }
	return x + y;
}`, true).Funcs["main"]
	var second *ir.Block
	for _, b := range f.Blocks[1:] {
		if b.Term.Kind == ir.TermBranch {
			second = b
		}
	}
	if f.Entry().Term.Kind != ir.TermBranch || second == nil {
		t.Fatalf("want a diamond in the entry block and one after it:\n%s", f)
	}
	for _, arm := range second.Term.Succs {
		arm.Instrs = slices.DeleteFunc(arm.Instrs, func(in ir.Instr) bool { return in.Op == ir.OpProbe })
	}
	if converted, blocked := ifConvert(f, BarrierStrong, 3); converted != 1 || blocked != 1 {
		t.Fatalf("%d converted, %d blocked, want 1 and 1:\n%s", converted, blocked, f)
	}
	if f.Entry().Term.Kind != ir.TermBranch || second.Term.Kind != ir.TermJump {
		t.Fatalf("want the entry's diamond kept and the second converted:\n%s", f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestIfConvertSweepsUntilNothingConverts: the outer diamond's first arm is
// the inner diamond's branch block, so the outer one becomes convertible
// only after the sweep that visits it first has converted the inner one.
// The pass sweeps again and converts both.
func TestIfConvertSweepsUntilNothingConverts(t *testing.T) {
	const a, b, x = 0, 1, 2
	f := ir.NewFunction("f", []string{"a", "b"})
	f.NRegs = 3
	outer := f.Entry()
	inner, yes, no, other, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	outer.Term = ir.Terminator{Kind: ir.TermBranch, Cond: a, Succs: []*ir.Block{inner, other}}
	inner.Term = ir.Terminator{Kind: ir.TermBranch, Cond: b, Succs: []*ir.Block{yes, no}}
	for i, arm := range []*ir.Block{yes, no, other} {
		arm.Instrs = []ir.Instr{{Op: ir.OpConst, Dst: x, Value: int64(i + 1)}}
		arm.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{join}}
	}
	join.Term = ir.Terminator{Kind: ir.TermReturn, Val: x}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	if converted, _ := ifConvert(f, BarrierNone, 3); converted != 2 || !slices.Equal(f.Blocks, []*ir.Block{outer, join}) {
		t.Fatalf("converted %d diamonds, want both:\n%s", converted, f)
	}
	if !slices.Equal(join.Preds, []*ir.Block{outer}) {
		t.Fatalf("join's predecessors %v, want the outer branch block only:\n%s", join.Preds, f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}
