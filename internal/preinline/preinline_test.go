package preinline

import (
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

func buildBinary(t testing.TB, src string) *machine.Prog {
	t.Helper()
	f, err := source.Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

const srcSizes = `
func main(a) { return big(a) + tiny(a); }
func big(x) {
	var s = 0;
	s = s + x * 1; s = s + x * 2; s = s + x * 3; s = s + x * 4;
	s = s + x * 5; s = s + x * 6; s = s + x * 7; s = s + x * 8;
	return s;
}
func tiny(x) { return x + 1; }
`

func TestExtractSizes(t *testing.T) {
	bin := buildBinary(t, srcSizes)
	st := ExtractSizes(bin)
	if st.of("big") <= st.of("tiny") {
		t.Fatalf("big (%d) should out-size tiny (%d)", st.of("big"), st.of("tiny"))
	}
	if st.of("main") == 0 || st.of("nonexistent") != st.DefaultSize {
		t.Fatalf("standalone sizes wrong: main=%d", st.of("main"))
	}
	// Total attributed bytes equal the text size.
	var sum uint64
	for _, fn := range []string{"main", "big", "tiny"} {
		sum += st.of(fn)
	}
	if sum != bin.TextSize {
		t.Fatalf("attributed %d of %d text bytes", sum, bin.TextSize)
	}
}

func TestExtractSizesSeesInlinedCopies(t *testing.T) {
	// Create inline debug chains by hand: give some of tiny's instructions
	// a two-deep Loc chain as if inlined into main, then check the context
	// trie records the copy and zero-materializes prefixes.
	f, err := source.Parse("m", srcSizes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	callLoc := &ir.Loc{Func: "main", Line: 2}
	tiny := p.Funcs["tiny"]
	for _, b := range tiny.Blocks {
		for i := range b.Instrs {
			if loc := b.Instrs[i].Loc; loc != nil {
				cp := *loc
				cp.Parent = callLoc
				b.Instrs[i].Loc = &cp
			}
		}
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := ExtractSizes(bin)
	if _, ok := st.ByContext["main"]; !ok {
		t.Fatal("standalone main chain missing")
	}
	if st.ByContext["main @ tiny"] == 0 {
		t.Fatalf("inlined copy size missing: %v", st.ByContext)
	}
}

func csProfileFor(t testing.TB, src string, runs int, arg int64) (*profdata.Profile, *SizeTable) {
	t.Helper()
	bin := buildBinary(t, src)
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	for i := 0; i < runs; i++ {
		if _, err := m.Run(arg); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())
	return prof, ExtractSizes(bin)
}

const srcHotCold = `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + hothelper(i);
		if (i % 97 == 0) { s = s + coldhelper(i); }
	}
	return s;
}
func hothelper(x) { return x * 2 + 1; }
func coldhelper(x) {
	var s = 0;
	for (var j = 0; j < 50; j = j + 1) { s = s + x % 5; }
	return s;
}
`

func TestPreInlinerMarksHotContexts(t *testing.T) {
	prof, sizes := csProfileFor(t, srcHotCold, 20, 600)
	params := DeriveParams(prof)
	res := Run(prof, sizes, params)
	if res.Inlined == 0 {
		t.Fatalf("nothing marked: %+v (contexts: %v)", res, prof.SortedContextKeys())
	}
	// The hot helper's context must be marked, the cold loop's not.
	foundHot := false
	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		if cp.Name == "hothelper" && cp.ShouldInline {
			foundHot = true
		}
		if cp.Name == "coldhelper" && cp.ShouldInline {
			t.Fatalf("cold large callee marked for inlining: %s", key)
		}
	}
	if !foundHot {
		t.Fatalf("hot context unmarked: %v", prof.SortedContextKeys())
	}
	// Every remaining context must be marked (unmarked ones promoted).
	for _, key := range prof.SortedContextKeys() {
		if !prof.Contexts[key].ShouldInline {
			if prof.Contexts[key].Context.Depth() > 1 {
				t.Fatalf("unmarked context survived promotion: %s", key)
			}
		}
	}
}

func TestPreInlinerConservesSamples(t *testing.T) {
	prof, sizes := csProfileFor(t, srcHotCold, 20, 600)
	before := prof.TotalSamples()
	Run(prof, sizes, DeriveParams(prof))
	if prof.TotalSamples() != before {
		t.Fatalf("samples lost: %d -> %d", before, prof.TotalSamples())
	}
}

func TestPreInlinerRespectsGrowthLimit(t *testing.T) {
	prof, sizes := csProfileFor(t, srcHotCold, 20, 600)
	params := DeriveParams(prof)
	params.GrowthLimit = 1 // no budget at all
	res := Run(prof, sizes, params)
	if res.Inlined != 0 {
		t.Fatalf("inlined %d contexts with zero budget", res.Inlined)
	}
}

func TestPreInlinerChildOnlyAfterParent(t *testing.T) {
	prof, sizes := csProfileFor(t, `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + mid(i); }
	return s;
}
func mid(x) { return leaf(x) + 1; }
func leaf(y) { return y * 3; }
`, 20, 500)
	res := Run(prof, sizes, DeriveParams(prof))
	if res.Inlined == 0 {
		t.Fatal("expected inlining in hot chain")
	}
	// Invariant: any marked context's parent (depth > 2) is also marked.
	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		if !cp.ShouldInline || cp.Context.Depth() <= 2 {
			continue
		}
		parent := cp.Context.Parent().Key()
		pp := prof.Contexts[parent]
		if pp == nil || !pp.ShouldInline {
			t.Fatalf("child %s marked without parent %s", key, parent)
		}
	}
}

func TestDeriveParams(t *testing.T) {
	prof := profdata.New(profdata.ProbeBased, true)
	for i := 0; i < 100; i++ {
		cp := prof.ContextProfile(profdata.NewContext("main", i+1, "f"))
		cp.HeadSamples = uint64(i + 1)
		cp.AddBody(profdata.LocKey{ID: 1}, uint64(i+1))
	}
	p := DeriveParams(prof)
	if p.HotCountThreshold < 45 || p.HotCountThreshold > 55 {
		t.Fatalf("median threshold = %d", p.HotCountThreshold)
	}
	empty := profdata.New(profdata.ProbeBased, true)
	if DeriveParams(empty).HotCountThreshold == 0 {
		t.Fatal("empty profile must still yield a positive threshold")
	}
}
