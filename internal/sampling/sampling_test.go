package sampling

import (
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

func build(t testing.TB, src string, withProbes bool) *machine.Prog {
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
	mp, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func profileRun(t testing.TB, bin *machine.Prog, cfg sim.PMUConfig, runs int, arg int64) []sim.Sample {
	t.Helper()
	m := sim.New(bin, sim.DefaultCostParams(), cfg)
	for i := 0; i < runs; i++ {
		if _, err := m.Run(arg + int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return m.Samples()
}

const hotColdSrc = `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + hot(i);
	}
	if (n < 0) { s = cold(s); }
	return s;
}
func hot(x) { return x * 2 + 1; }
func cold(x) { return x - 1000; }
`

func TestLBRRangesAreValid(t *testing.T) {
	bin := build(t, hotColdSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(50), 20, 200)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	total, valid := 0, 0
	for _, s := range samples {
		for i := 0; i+1 < len(s.LBR); i++ {
			total++
			r := addrRange{Begin: s.LBR[i+1].To, End: s.LBR[i].From}
			if r.Valid(bin) {
				valid++
			}
		}
	}
	if total == 0 || valid*10 < total*9 {
		t.Fatalf("too many invalid ranges: %d/%d", valid, total)
	}
}

func TestAutoFDOProfileShape(t *testing.T) {
	bin := build(t, hotColdSrc, false)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(40), 30, 300)
	p := GenerateAutoFDO(bin, samples, FlatOptions{})
	if p.Kind != profdata.LineBased || p.CS {
		t.Fatalf("wrong profile kind: %v", p)
	}
	mainP := p.Funcs["main"]
	hotP := p.Funcs["hot"]
	if mainP == nil || hotP == nil {
		t.Fatalf("missing profiles: %v", p)
	}
	if _, ok := p.Funcs["cold"]; ok {
		t.Fatal("cold function must have no samples")
	}
	if hotP.TotalSamples == 0 || hotP.HeadSamples == 0 {
		t.Fatalf("hot profile empty: %+v", hotP)
	}
	// main must record call targets to hot.
	foundCall := false
	for _, m := range mainP.Calls {
		if m["hot"] > 0 {
			foundCall = true
		}
	}
	if !foundCall {
		t.Fatalf("main's call to hot not recorded: %+v", mainP.Calls)
	}
}

func TestProbeProfileShape(t *testing.T) {
	bin := build(t, hotColdSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(40), 30, 300)
	p := GenerateProbeProfile(bin, samples, FlatOptions{})
	if p.Kind != profdata.ProbeBased || p.CS {
		t.Fatalf("wrong kind: %v", p)
	}
	hotP := p.Funcs["hot"]
	if hotP == nil || hotP.Checksum == 0 {
		t.Fatalf("hot probe profile missing checksum: %+v", hotP)
	}
	if hotP.HeadSamples != hotP.BodyAt(profdata.LocKey{ID: 1}) {
		t.Fatal("head must equal entry-probe count")
	}
	mainP := p.Funcs["main"]
	// The loop-body probe must dominate main's counts.
	var maxCount uint64
	for _, c := range mainP.Blocks {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount <= mainP.HeadSamples {
		t.Fatalf("loop body should out-sample entry: max=%d head=%d", maxCount, mainP.HeadSamples)
	}
}

// The paper's Fig. 3/4 example: scalarOp behaves differently per caller.
const contextSrc = `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + addVectorHead(i);
		s = s + subVectorHead(i);
	}
	return s;
}
func addVectorHead(x) { return scalarOp(x, 1); }
func subVectorHead(x) { return scalarOp(x, 2); }
func scalarOp(x, op) {
	if (op == 1) { return scalarAdd(x); }
	return scalarSub(x);
}
func scalarAdd(x) { return x + 10; }
func scalarSub(x) { return x - 10; }
`

func TestCSSPGORecoveredContexts(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
	p, stats := GenerateCSSPGO(bin, samples, DefaultCSSPGOOptions())
	if !p.CS || p.Kind != profdata.ProbeBased {
		t.Fatalf("wrong kind: %v", p)
	}
	if stats.Samples == 0 || stats.Ranges == 0 {
		t.Fatalf("unwinder did nothing: %+v", stats)
	}
	// scalarOp must appear under at least two distinct calling contexts.
	ctxs := contextsOf(p, "scalarOp")
	if len(ctxs) < 2 {
		t.Fatalf("scalarOp contexts = %d, want >=2; keys=%v", len(ctxs), p.SortedContextKeys())
	}
	// Find the contexts routed through each vector head and check their
	// call targets differ — the context-sensitivity the flat profile loses.
	var viaAdd, viaSub *profdata.FunctionProfile
	for _, c := range ctxs {
		key := c.Context.Key()
		if contains(key, "addVectorHead") {
			viaAdd = c
		}
		if contains(key, "subVectorHead") {
			viaSub = c
		}
	}
	if viaAdd == nil || viaSub == nil {
		t.Fatalf("missing per-caller contexts: %v", p.SortedContextKeys())
	}
	if callTotal(viaAdd, "scalarSub") > 0 || callTotal(viaSub, "scalarAdd") > 0 {
		t.Fatal("context profiles must separate scalarAdd/scalarSub callers")
	}
	if callTotal(viaAdd, "scalarAdd") == 0 || callTotal(viaSub, "scalarSub") == 0 {
		t.Fatal("context profiles lost their own call targets")
	}
	// Flattening must merge both targets into the base profile.
	base := p.Flat().Funcs["scalarOp"]
	if callTotal(base, "scalarAdd") == 0 || callTotal(base, "scalarSub") == 0 {
		t.Fatalf("flattened profile should see both callees: %+v", base.Calls)
	}
}

func callTotal(fp *profdata.FunctionProfile, callee string) uint64 {
	var t uint64
	for _, m := range fp.Calls {
		t += m[callee]
	}
	return t
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCSSPGOWithSkid(t *testing.T) {
	bin := build(t, contextSrc, true)
	cfg := sim.DefaultPMUConfig(16)
	cfg.PEBS = false
	samples := profileRun(t, bin, cfg, 40, 400)
	p, stats := GenerateCSSPGO(bin, samples, DefaultCSSPGOOptions())
	if stats.SkidAdjusted == 0 {
		t.Fatal("non-PEBS samples should trigger skid adjustment")
	}
	// Contexts must still be recoverable.
	if len(contextsOf(p, "scalarOp")) < 2 {
		t.Fatalf("skid handling lost contexts: %v", p.SortedContextKeys())
	}
}

func TestTailCallGraphInference(t *testing.T) {
	g := &tailCallGraph{edges: map[string]map[string]*tailEdge{}}
	add := func(from, to string) {
		if g.edges[from] == nil {
			g.edges[from] = map[string]*tailEdge{}
		}
		g.edges[from][to] = &tailEdge{From: from, To: to}
	}
	add("a", "b")
	add("b", "c")
	add("a", "d")
	add("d", "c") // two paths a→c: via b and via d

	if path := g.inferPath("a", "b"); len(path) != 1 || path[0].To != "b" {
		t.Fatalf("direct path: %v", path)
	}
	if path := g.inferPath("b", "c"); len(path) != 1 {
		t.Fatalf("b→c: %v", path)
	}
	if path := g.inferPath("a", "c"); path != nil {
		t.Fatalf("ambiguous path must fail: %v", path)
	}
	if path := g.inferPath("c", "a"); path != nil {
		t.Fatalf("absent path must fail: %v", path)
	}
	if path := g.inferPath("x", "x"); path == nil || len(path) != 0 {
		t.Fatalf("self path must be empty, non-nil: %v", path)
	}
}

// tailCallProgram builds a program where `middle` tail-calls `leaf`, so
// stack samples in leaf lack middle's frame.
func tailCallProgram(t testing.TB) *machine.Prog {
	t.Helper()
	f, err := source.Parse("m", `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + middle(i); }
	return s;
}
func middle(x) { return leaf(x + 1); }
func leaf(y) {
	var s = 0;
	for (var j = 0; j < 20; j = j + 1) { s = s + y; }
	return s;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	for _, b := range p.Funcs["middle"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Callee == "leaf" {
				b.Instrs[i].TailCall = true
			}
		}
	}
	mp, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestMissingFrameInference(t *testing.T) {
	bin := tailCallProgram(t)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 30, 120)

	with, stWith := GenerateCSSPGO(bin, samples, CSSPGOOptions{TailCallInference: true, MaxContextDepth: 8})
	_, stWithout := GenerateCSSPGO(bin, samples, CSSPGOOptions{TailCallInference: false, MaxContextDepth: 8})

	if stWith.MissingFrameEvents == 0 {
		t.Fatal("TCE should produce missing-frame events")
	}
	if stWith.FramesRecovered == 0 {
		t.Fatal("inference should recover frames")
	}
	if stWithout.FramesRecovered != 0 {
		t.Fatal("inference disabled must recover nothing")
	}
	// With inference, leaf must appear under a context that includes middle.
	found := false
	for _, c := range contextsOf(with, "leaf") {
		if indexOf(c.Context.Key(), "middle") >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no leaf context mentions middle: %v", with.SortedContextKeys())
	}
}

// TestMaxVsSumUnderDuplication hand-builds duplicated code (two copies of
// one block, same source line, same probe ID) and checks the two
// correlation strategies: line-based takes MAX (undercounts), probe-based
// SUMS (exact) — the paper's §III.A code-duplication argument.
func TestMaxVsSumUnderDuplication(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFunction("main", []string{"n"})
	f.Module = "m"
	f.StartLine = 1
	loc := &ir.Loc{Func: "main", Line: 5}

	entry := f.Entry()
	copy1 := f.NewBlock()
	copy2 := f.NewBlock()
	exit := f.NewBlock()
	// Two duplicated blocks execute back to back, like an unrolled body.
	work := func(b *ir.Block, id int32) {
		b.Instrs = append(b.Instrs,
			ir.Instr{Op: ir.OpProbe, Dst: ir.NoReg, Probe: &ir.Probe{Func: "main", ID: id, Kind: ir.ProbeBlock, Factor: 1}},
			// acc = acc + zero: pure duplicated work on line 5.
			ir.Instr{Op: ir.OpBin, BinKind: ir.BinAdd, Dst: 1, A: 1, B: 4, Loc: loc},
		)
	}
	// Registers: 0 = n (param), 1 = acc, 2 = cond, 3 = one, 4 = zero.
	for f.NRegs < 5 {
		f.NewReg()
	}
	entry.Instrs = append(entry.Instrs,
		ir.Instr{Op: ir.OpProbe, Dst: ir.NoReg, Probe: &ir.Probe{Func: "main", ID: 1, Kind: ir.ProbeBlock, Factor: 1}},
		ir.Instr{Op: ir.OpConst, Dst: 1, Value: 0, Loc: &ir.Loc{Func: "main", Line: 2}},
		ir.Instr{Op: ir.OpConst, Dst: 4, Value: 0, Loc: &ir.Loc{Func: "main", Line: 3}},
	)
	entry.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{copy1}}
	// Both copies share probe ID 2 (duplicated probe) and line 5.
	work(copy1, 2)
	copy1.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{copy2}}
	work(copy2, 2)
	// Loop back: cond = acc < n
	copy2.Instrs = append(copy2.Instrs,
		ir.Instr{Op: ir.OpConst, Dst: 3, Value: 1, Loc: loc},
		ir.Instr{Op: ir.OpBin, BinKind: ir.BinAdd, Dst: 1, A: 1, B: 3, Loc: loc},
		ir.Instr{Op: ir.OpBin, BinKind: ir.BinLt, Dst: 2, A: 1, B: 0, Loc: loc},
	)
	copy2.Term = ir.Terminator{Kind: ir.TermBranch, Cond: 2, Succs: []*ir.Block{copy1, exit}}
	exit.Instrs = append(exit.Instrs,
		ir.Instr{Op: ir.OpProbe, Dst: ir.NoReg, Probe: &ir.Probe{Func: "main", ID: 3, Kind: ir.ProbeBlock, Factor: 1}})
	exit.Term = ir.Terminator{Kind: ir.TermReturn, Val: 1}
	f.RebuildCFG()
	f.NumProbes = 3
	f.Checksum = f.CFGChecksum()
	p.AddFunc(f)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(8))
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	samples := m.Samples()
	if len(samples) < 100 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	lineProf := GenerateAutoFDO(bin, samples, FlatOptions{})
	probeProf := GenerateProbeProfile(bin, samples, FlatOptions{})
	if lineProf.Funcs["main"] == nil || probeProf.Funcs["main"] == nil {
		t.Fatal("profiles missing main")
	}
	lineCount := lineProf.Funcs["main"].BodyAt(profdata.LocKey{ID: 4}) // line 5, start 1
	probeCount := probeProf.Funcs["main"].BodyAt(profdata.LocKey{ID: 2})
	if lineCount == 0 || probeCount == 0 {
		t.Fatalf("no counts: line=%d probe=%d", lineCount, probeCount)
	}
	// The probe count (sum of both copies) must be ~2x the line count (max
	// of the copies). Allow slack for sampling noise.
	ratio := float64(probeCount) / float64(lineCount)
	if ratio < 1.5 {
		t.Fatalf("probe sum (%d) should be ~2x line max (%d); ratio %.2f", probeCount, lineCount, ratio)
	}
}

func TestInstrProfileIsExact(t *testing.T) {
	f, err := source.Parse("m", `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	bin, err := codegen.Lower(p, codegen.Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	if _, err := m.Run(123); err != nil {
		t.Fatal(err)
	}
	prof := GenerateInstrProfile(bin, m.Counters())
	mainP := prof.Funcs["main"]
	if mainP == nil {
		t.Fatal("no main profile")
	}
	if mainP.HeadSamples != 1 {
		t.Fatalf("head = %d, want exactly 1", mainP.HeadSamples)
	}
	// Some block executed exactly 123 times (the loop body).
	found := false
	for _, c := range mainP.Blocks {
		if c == 123 {
			found = true
		}
	}
	if !found {
		t.Fatalf("loop body count missing: %v", mainP.Blocks)
	}
}

// contextsOf returns all context profiles of p whose leaf function is name,
// in key order.
func contextsOf(p *profdata.Profile, name string) []*profdata.FunctionProfile {
	var out []*profdata.FunctionProfile
	for _, k := range p.SortedContextKeys() {
		if fp := p.Contexts[k]; fp.Name == name {
			out = append(out, fp)
		}
	}
	return out
}
