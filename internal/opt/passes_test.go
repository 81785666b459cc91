package opt

import (
	"slices"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
)

func lower(t testing.TB, src string, withProbes bool) *ir.Program {
	t.Helper()
	f, err := source.Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	if withProbes {
		probe.InsertProgram(p)
	}
	return p
}

func TestDCERemovesDeadCode(t *testing.T) {
	p := lower(t, `func main(a) { var dead = a * 2 + 7; return a; }`, false)
	f := p.Funcs["main"]
	before := realSize(f)
	removed := dce(f)
	if removed == 0 {
		t.Fatal("dead computation not removed")
	}
	if realSize(f) >= before {
		t.Fatal("size did not shrink")
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	p := lower(t, `
global g;
func main(a) { g = a; noisy(a); return 0; }
func noisy(x) { g = g + x; return x; }`, false)
	f := p.Funcs["main"]
	dce(f)
	stores, calls := 0, 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpStoreG:
				stores++
			case ir.OpCall:
				calls++
			}
		}
	}
	if stores == 0 || calls == 0 {
		t.Fatalf("side effects removed: stores=%d calls=%d", stores, calls)
	}
}

func TestSimplifyMergesChains(t *testing.T) {
	// The for-loop body jumps to its single-predecessor post block: a
	// straight-line chain simplifyCFG must collapse.
	p := lower(t, `func main(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }`, false)
	f := p.Funcs["main"]
	n := len(f.Blocks)
	res := simplifyCFG(f, false, BarrierNone)
	if res.Merged == 0 || len(f.Blocks) >= n {
		t.Fatalf("no blocks merged: %d -> %d (%+v)", n, len(f.Blocks), res)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// tailMergeSrc: both arms contain identical statements (same persistent
// registers, same temp registers — thanks to the per-statement temp pool),
// so without probes the arms can merge entirely; with probes, only the
// suffix below the distinct block probes can.
const tailMergeSrc = `
func main(a) {
	var x = 0;
	if (a > 0) {
		x = a * 2;
		x = x + 9;
		x = x * 3;
	} else {
		x = a * 2;
		x = x + 9;
		x = x * 3;
	}
	return x;
}`

func TestTailMergeWithoutProbes(t *testing.T) {
	p := lower(t, tailMergeSrc, false)
	f := p.Funcs["main"]
	res := simplifyCFG(f, true, BarrierNone)
	if res.TailMerges == 0 {
		t.Fatalf("identical tails not merged:\n%s", f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTailMergeKeepsCallsWithDifferentArguments: two arms that call the
// same function into the same register with different arguments are not
// one tail. Merging them would call f(x) on both paths.
func TestTailMergeKeepsCallsWithDifferentArguments(t *testing.T) {
	p := lower(t, `
func f(a) { return a * 3; }
func main(c, x, y) { var r = 0; if (c) { r = f(x); } else { r = f(y); } return r; }`, false)
	f := p.Funcs["main"]
	simplifyCFG(f, true, BarrierNone)
	var args [][]ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpCall {
				args = append(args, in.Args())
			}
		}
	}
	if len(args) != 2 || slices.Equal(args[0], args[1]) {
		t.Fatalf("the calls f(x) and f(y) were merged:\n%s", f)
	}
}

func TestTailMergeKeepsProbesPerArm(t *testing.T) {
	// Probes sit at block heads with distinct IDs, so tail merging can
	// still extract the common suffix — but each arm must retain its own
	// block probe (which is why probe-based correlation survives the
	// merge), and the full-block collapse is reported as blocked.
	p := lower(t, tailMergeSrc, true)
	f := p.Funcs["main"]
	want := map[int32]bool{}
	for id := range probe.BuildIndex(f).Blocks {
		want[id] = true
	}
	res := simplifyCFG(f, true, BarrierWeak)
	if res.TailMergeBlocked == 0 {
		t.Fatalf("probe-limited merge not reported: %+v", res)
	}
	got := map[int32]bool{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpProbe {
				got[b.Instrs[i].Probe.ID] = true
			}
		}
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("block probe %d lost during tail merge", id)
		}
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	p := lower(t, `
func main(n) {
	var s = 0;
	var i = 0;
	while (i < n) {
		var inv = 100 * 3;
		s = s + inv;
		i = i + 1;
	}
	return s;
}`, false)
	f := p.Funcs["main"]
	hoisted := licm(f)
	if hoisted == 0 {
		t.Fatalf("nothing hoisted:\n%s", f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// The loop body must no longer contain the hoisted constants.
	loops, _ := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loop destroyed: %d", len(loops))
	}
}

func TestLICMRefusesVariant(t *testing.T) {
	p := lower(t, `
func main(n) {
	var s = 0;
	var i = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	return s;
}`, false)
	f := p.Funcs["main"]
	// s and i change every iteration: the adds must stay. Constants used
	// by compares may hoist; the OpBin on loop-variant regs must not.
	licm(f)
	loops, _ := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatal("loop destroyed")
	}
	varAdds := 0
	for _, b := range loops[0].Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpBin && in.BinKind == ir.BinAdd {
				varAdds++
			}
		}
	}
	if varAdds < 2 {
		t.Fatalf("loop-variant adds were hoisted:\n%s", f)
	}
}

func TestUnrollDuplicatesProbesAndScalesWeights(t *testing.T) {
	p := lower(t, `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }`, true)
	f := p.Funcs["main"]
	// Annotate weights as if profiled.
	for _, b := range f.Blocks {
		b.Weight = 1000
		b.HasWeight = true
	}
	blocksBefore := len(f.Blocks)
	n := unroll(f, unrollParams{Factor: 4, MaxBodyInstrs: 24})
	if n != 1 {
		t.Fatalf("loop not unrolled:\n%s", f)
	}
	if len(f.Blocks) != blocksBefore+6 { // 3 extra (header,body) pairs
		t.Fatalf("blocks: %d -> %d", blocksBefore, len(f.Blocks))
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// Probe copies share IDs: some probe ID appears 4 times.
	counts := map[int32]int{}
	for id, blocks := range probe.BuildIndex(f).Blocks {
		counts[id] = len(blocks)
	}
	found4 := false
	for _, c := range counts {
		if c == 4 {
			found4 = true
		}
	}
	if !found4 {
		t.Fatalf("duplicated probes missing: %v", counts)
	}
	// Weights scaled down by the factor.
	for _, b := range f.Blocks {
		if b.HasWeight && b.Weight == 1000 && len(b.Term.Succs) == 2 {
			t.Fatalf("loop block weight not scaled:\n%s", f)
		}
	}
}

const diamondSrc = `
func main(a) {
	var x = 0;
	if (a % 2 == 0) { x = a + 1; } else { x = a - 1; }
	return x;
}`

func TestIfConvert(t *testing.T) {
	p := lower(t, diamondSrc, false)
	f := p.Funcs["main"]
	if converted, _ := ifConvert(f, BarrierNone, 3); converted != 1 {
		t.Fatalf("diamond not converted:\n%s", f)
	}
	branches := 0
	selects := 0
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBranch {
			branches++
		}
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSelect {
				selects++
			}
		}
	}
	if branches != 0 || selects == 0 {
		t.Fatalf("branches=%d selects=%d:\n%s", branches, selects, f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestIfConvertBarriers(t *testing.T) {
	// Strong barrier (instrumentation): blocked.
	p1 := lower(t, diamondSrc, true)
	if converted, blocked := ifConvert(p1.Funcs["main"], BarrierStrong, 3); converted != 0 || blocked == 0 {
		t.Fatalf("strong barrier should block: %d converted, %d blocked", converted, blocked)
	}
	// Weak barrier (tuned pseudo-probes): proceeds.
	p2 := lower(t, diamondSrc, true)
	if converted, blocked := ifConvert(p2.Funcs["main"], BarrierWeak, 3); converted != 1 {
		t.Fatalf("weak barrier should proceed: %d converted, %d blocked", converted, blocked)
	}
	if err := p2.Funcs["main"].Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTCEMarksTailCalls(t *testing.T) {
	p := lower(t, `
func main(a) { return chain(a); }
func chain(x) { return x * 2; }`, false)
	if n := tce(p.Funcs["main"]); n != 1 {
		t.Fatalf("tail call not marked: %d", n)
	}
	var marked *ir.Instr
	for _, b := range p.Funcs["main"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].TailCall {
				marked = &b.Instrs[i]
			}
		}
	}
	if marked == nil || marked.Sym() != "chain" {
		t.Fatal("wrong instruction marked")
	}
}

func TestTCESkipsNonTailCalls(t *testing.T) {
	p := lower(t, `
func main(a) { return helper(a) + 1; }
func helper(x) { return x; }`, false)
	if n := tce(p.Funcs["main"]); n != 0 {
		t.Fatalf("non-tail call marked: %d", n)
	}
}

func TestLayoutPutsHotSuccessorFallthrough(t *testing.T) {
	p := lower(t, diamondSrc, false)
	f := p.Funcs["main"]
	// Annotate: else-arm hot.
	f.RebuildCFG()
	entry := f.Entry()
	thenB, elseB := entry.Term.Succs[0], entry.Term.Succs[1]
	entry.Weight, entry.HasWeight = 100, true
	thenB.Weight, thenB.HasWeight = 1, true
	elseB.Weight, elseB.HasWeight = 99, true
	entry.Term.EdgeW = []uint64{1, 99}
	for _, b := range f.Blocks {
		if b == entry {
			continue
		}
		if !b.HasWeight {
			b.Weight, b.HasWeight = 100, true
		}
		b.Term.EnsureEdgeWeights()
		for i := range b.Term.EdgeW {
			b.Term.EdgeW[i] = b.Weight
		}
	}
	if !layout(f) {
		t.Fatalf("layout did not run:\n%s", f)
	}
	// The hot arm must directly follow the entry in layout order.
	if f.Blocks[0] != entry || f.Blocks[1] != elseB {
		t.Fatalf("hot arm not fallthrough: order %d,%d,...", f.Blocks[0].ID, f.Blocks[1].ID)
	}
}

func TestSplitMarksColdBlocks(t *testing.T) {
	p := lower(t, diamondSrc, false)
	f := p.Funcs["main"]
	f.RebuildCFG()
	for i, b := range f.Blocks {
		b.HasWeight = true
		if i == 2 {
			b.Weight = 0
		} else {
			b.Weight = 100
		}
	}
	if n := split(f); n != 1 {
		t.Fatalf("split marked %d", n)
	}
	if !f.Blocks[2].Cold {
		t.Fatal("wrong block marked")
	}
	if f.Entry().Cold {
		t.Fatal("entry must never be cold")
	}
}

func TestAnnotateProbeProfile(t *testing.T) {
	p := lower(t, diamondSrc, true)
	f := p.Funcs["main"]
	prof := profdata.New(profdata.ProbeBased, false)
	fp := prof.FuncProfile("main")
	fp.Checksum = f.Checksum
	fp.HeadSamples = 50
	fp.AddBody(profdata.LocKey{ID: 1}, 50)
	fp.AddBody(profdata.LocKey{ID: 2}, 30)
	fp.AddBody(profdata.LocKey{ID: 3}, 20)
	st := Annotate(p, prof)
	if st.Annotated != 1 {
		t.Fatalf("annotate: %+v", st)
	}
	if !f.HasProfile || f.EntryCount != 50 {
		t.Fatalf("entry count: %d", f.EntryCount)
	}
	if f.Entry().Weight != 50 || !f.Entry().HasWeight {
		t.Fatalf("entry weight: %d", f.Entry().Weight)
	}
}

func TestAnnotateRejectsStaleChecksum(t *testing.T) {
	p := lower(t, diamondSrc, true)
	prof := profdata.New(profdata.ProbeBased, false)
	fp := prof.FuncProfile("main")
	fp.Checksum = 0xDEAD // mismatches
	fp.AddBody(profdata.LocKey{ID: 1}, 50)
	st := Annotate(p, prof)
	if st.Stale != 1 || st.Annotated != 0 {
		t.Fatalf("stale profile accepted: %+v", st)
	}
	if p.Funcs["main"].HasProfile {
		t.Fatal("stale profile annotated anyway")
	}
}

func TestAnnotateLineProfile(t *testing.T) {
	p := lower(t, diamondSrc, false)
	f := p.Funcs["main"]
	prof := profdata.New(profdata.LineBased, false)
	fp := prof.FuncProfile("main")
	fp.HeadSamples = 10
	// diamondSrc: func at line 2; `x = a + 1` on line 4 → offset 2.
	fp.AddBody(profdata.LocKey{ID: 2}, 40)
	st := Annotate(p, prof)
	if st.Annotated != 1 {
		t.Fatalf("%+v", st)
	}
	found := false
	for _, b := range f.Blocks {
		if b.HasWeight && b.Weight == 40 {
			found = true
		}
	}
	if !found {
		t.Fatalf("line-offset annotation missed:\n%s", f)
	}
}

func TestInlineCallMechanics(t *testing.T) {
	p := lower(t, `
func main(a) { var r = helper(a, 3); return r + 1; }
func helper(x, y) { if (x > y) { return x; } return y; }`, true)
	f := p.Funcs["main"]
	var b *ir.Block
	idx := -1
	for _, bb := range f.Blocks {
		for i := range bb.Instrs {
			if bb.Instrs[i].Op == ir.OpCall {
				b, idx = bb, i
			}
		}
	}
	callProbeID := b.Instrs[idx].Probe.ID
	if err := inlineCall(p, f, b, idx, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("post-inline verify: %v\n%s", err, f)
	}
	// No calls remain.
	for _, bb := range f.Blocks {
		for i := range bb.Instrs {
			if bb.Instrs[i].Op == ir.OpCall {
				t.Fatal("call not removed")
			}
		}
	}
	// Inlined probes carry the callee identity + inline chain through the
	// call site, and inlined locations have 2-deep chains.
	probes, locs := 0, 0
	for _, bb := range f.Blocks {
		for i := range bb.Instrs {
			in := &bb.Instrs[i]
			if in.Op == ir.OpProbe && in.Probe.Func == "helper" {
				probes++
				if in.Probe.InlinedAt == nil ||
					in.Probe.InlinedAt.Func != "main" ||
					in.Probe.InlinedAt.CallID != callProbeID {
					t.Fatalf("bad inline chain: %+v", in.Probe)
				}
			}
			if in.Loc != nil && in.Loc.Depth() == 2 && in.Loc.Func == "helper" {
				locs++
			}
		}
	}
	if probes == 0 {
		t.Fatal("no inlined probes found")
	}
	if locs == 0 {
		t.Fatal("no re-parented locations found")
	}
}

func TestInlineScalesContextInsensitively(t *testing.T) {
	p := lower(t, `
func main(a) { var r = helper(a); return r; }
func helper(x) { if (x > 0) { return 1; } return 2; }`, true)
	f, h := p.Funcs["main"], p.Funcs["helper"]
	h.HasProfile, h.EntryCount = true, 100
	f.HasProfile, f.EntryCount = true, 10
	for _, bb := range h.Blocks {
		bb.Weight, bb.HasWeight = 100, true
	}
	h.Entry().Weight = 100
	var b *ir.Block
	idx := -1
	for _, bb := range f.Blocks {
		bb.Weight, bb.HasWeight = 10, true
		for i := range bb.Instrs {
			if bb.Instrs[i].Op == ir.OpCall {
				b, idx = bb, i
			}
		}
	}
	if err := inlineCall(p, f, b, idx, nil); err != nil {
		t.Fatal(err)
	}
	// Cloned blocks scale 100 * 10/100 = 10.
	for _, bb := range f.Blocks {
		for i := range bb.Instrs {
			in := &bb.Instrs[i]
			if in.Op == ir.OpProbe && in.Probe.Func == "helper" && in.Probe.Kind == ir.ProbeBlock {
				if bb.Weight != 10 {
					t.Fatalf("inlined block weight = %d, want 10", bb.Weight)
				}
			}
		}
	}
}

func TestBottomUpInlineRespectsThinLTO(t *testing.T) {
	f1, err := source.Parse("mod1", `func main(a) { return big(a) + tiny(a); }`)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := source.Parse("mod2", `
func big(x) {
	var s = 0;
	s = s + x * 1; s = s + x * 2; s = s + x * 3; s = s + x * 4;
	s = s + x * 5; s = s + x * 6; s = s + x * 7; s = s + x * 8;
	return s;
}
func tiny(x) { return x + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	params := defaultInlineParams()
	params.SizeThreshold = 100 // same-module would admit big
	bottomUpInline(p, new(ir.CallGraphScratch), params, false)
	calls := map[string]bool{}
	for _, b := range p.Funcs["main"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				calls[b.Instrs[i].Sym()] = true
			}
		}
	}
	if !calls["big"] {
		t.Fatal("cross-module big callee must not be imported (ThinLTO summary limit)")
	}
	if calls["tiny"] {
		t.Fatal("tiny cross-module callee should have been imported and inlined")
	}
}
