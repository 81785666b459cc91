package opt

import (
	"testing"

	"csspgo/internal/ir"
)

// Additional pass edge cases and determinism checks.

func TestInlineRefusesDirectRecursion(t *testing.T) {
	p := lower(t, `
func main(n) { return fact(n % 10); }
func fact(n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}`, false)
	f := p.Funcs["fact"]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Sym() == "fact" {
				if err := inlineCall(p, f, b, i, nil); err == nil {
					t.Fatal("direct recursion must not inline")
				}
				return
			}
		}
	}
	t.Fatal("recursive call not found")
}

func TestBottomUpInlineRespectsGrowthCap(t *testing.T) {
	// A caller with many callable sites stops growing at the cap.
	src := "func main(a) {\n\tvar s = 0;\n"
	for i := 0; i < 40; i++ {
		src += "\ts = s + work(a);\n"
	}
	src += "\treturn s;\n}\nfunc work(x) { var r = x * 3 + 1; r = r % 97; r = r + x; return r; }\n"
	p := lower(t, src, false)
	before := realSize(p.Funcs["main"])
	params := defaultInlineParams()
	params.GrowthCap = before + 30 // room for ~2 inlines of `work`
	params.TinyThreshold = 0
	bottomUpInline(p, new(ir.CallGraphScratch), params, false)
	after := realSize(p.Funcs["main"])
	if after > params.GrowthCap+20 {
		t.Fatalf("growth cap exceeded: %d -> %d (cap %d)", before, after, params.GrowthCap)
	}
	// Most call sites must remain.
	calls := 0
	for _, b := range p.Funcs["main"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				calls++
			}
		}
	}
	if calls < 30 {
		t.Fatalf("cap should have left most call sites uninlined, %d remain", calls)
	}
}

func TestUnrollRefusesLoopsWithCalls(t *testing.T) {
	p := lower(t, `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + leaf(i); }
	return s;
}
func leaf(x) { return x + 1; }`, false)
	f := p.Funcs["main"]
	if n := unroll(f, unrollParams{Factor: 4, MaxBodyInstrs: 50}); n != 0 {
		t.Fatalf("loop with call unrolled (%d)", n)
	}
}

func TestUnrollRefusesOversizedBody(t *testing.T) {
	src := `func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + i * 3; s = s - i / 2; s = s + i % 5;
		s = s * 2; s = s - 7; s = s + i;
	}
	return s;
}`
	p := lower(t, src, false)
	f := p.Funcs["main"]
	if n := unroll(f, unrollParams{Factor: 4, MaxBodyInstrs: 4}); n != 0 {
		t.Fatalf("oversized body unrolled (%d)", n)
	}
}

func TestLayoutDeterministic(t *testing.T) {
	mk := func() *ir.Function {
		p := lower(t, `
func main(a) {
	var r = 0;
	if (a % 2 == 0) { r = 1; } else { r = 2; }
	if (a % 3 == 0) { r = r + 10; }
	switch (a % 4) {
	case 0: r = r * 2;
	case 1: r = r * 3;
	default: r = r * 5;
	}
	return r;
}`, false)
		f := p.Funcs["main"]
		f.RebuildCFG()
		for i, b := range f.Blocks {
			b.Weight = uint64(100 - i*3)
			b.HasWeight = true
			b.Term.EnsureEdgeWeights()
			for j := range b.Term.EdgeW {
				b.Term.EdgeW[j] = b.Weight / uint64(len(b.Term.EdgeW))
			}
		}
		return f
	}
	a, b := mk(), mk()
	layout(a)
	layout(b)
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("layout changed block count")
	}
	for i := range a.Blocks {
		if a.Blocks[i].ID != b.Blocks[i].ID {
			t.Fatalf("layout nondeterministic at %d: %d vs %d", i, a.Blocks[i].ID, b.Blocks[i].ID)
		}
	}
}

func TestLayoutKeepsEntryFirst(t *testing.T) {
	p := lower(t, diamondSrc, false)
	f := p.Funcs["main"]
	entry := f.Entry()
	for _, b := range f.Blocks {
		b.Weight, b.HasWeight = 50, true
		b.Term.EnsureEdgeWeights()
	}
	// Make a non-entry block the hottest.
	f.Blocks[2].Weight = 1000
	layout(f)
	if f.Blocks[0] != entry {
		t.Fatal("entry must stay first regardless of heat")
	}
}

func TestTCEIgnoresICalls(t *testing.T) {
	p := lower(t, `
func main(a) {
	var h = &leaf;
	return icall(h, a);
}
func leaf(x) { return x + 1; }`, false)
	if n := tce(p.Funcs["main"]); n != 0 {
		t.Fatalf("icall must not be TCE-marked (%d)", n)
	}
}

func TestDCEPreservesICalls(t *testing.T) {
	p := lower(t, `
global g;
func main(a) {
	var h = &effectful;
	var dead = icall(h, a);
	return g;
}
func effectful(x) { g = g + x; return 0; }`, false)
	f := p.Funcs["main"]
	dce(f)
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpICall {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("DCE removed an indirect call with side effects")
	}
}

func TestSimplifyRemovesEmptyForwarders(t *testing.T) {
	p := lower(t, diamondSrc, false)
	f := p.Funcs["main"]
	// Interpose an empty forwarding block on one edge.
	f.RebuildCFG()
	entry := f.Entry()
	target := entry.Term.Succs[0]
	fwd := f.NewBlock()
	fwd.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{target}}
	entry.Term.Succs[0] = fwd
	f.RebuildCFG()
	before := len(f.Blocks)
	res := simplifyCFG(f, false, BarrierNone)
	// The forwarder disappears either via empty-block removal or by being
	// merged with its single-predecessor target.
	if res.EmptyRemoved == 0 && res.Merged == 0 {
		t.Fatalf("forwarder not removed: %+v\n%s", res, f)
	}
	if len(f.Blocks) >= before {
		t.Fatalf("block count did not shrink: %d -> %d", before, len(f.Blocks))
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDropDeadFunctionsKeepsAddressTaken(t *testing.T) {
	p := lower(t, `
func main(a) {
	var h = &used;
	return icall(h, a);
}
func used(x) { return x; }
func unused(x) { return x * 2; }`, true)
	dropped := dropDeadFunctions(p)
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1 (only `unused`)", dropped)
	}
	if p.Funcs["used"] == nil {
		t.Fatal("address-taken function dropped")
	}
	if p.Funcs["unused"] != nil {
		t.Fatal("dead function survived")
	}
	// Its checksum must persist for profile verification.
	if p.DroppedChecksums["unused"] == 0 {
		t.Fatal("dropped function's checksum lost")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	run := func() string {
		p := lower(t, semanticPrograms[0].src, true)
		cfg := &Config{Barrier: BarrierWeak}
		if _, err := Optimize(p, cfg); err != nil {
			t.Fatal(err)
		}
		return p.String()
	}
	if run() != run() {
		t.Fatal("optimizer output nondeterministic")
	}
}
