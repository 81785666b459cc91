package analysis

import (
	"strings"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
)

// buildDiamond constructs entry → (then|else) → join, join returns.
func buildDiamond(t testing.TB) *ir.Function {
	t.Helper()
	f := ir.NewFunction("diamond", []string{"a"})
	b0 := f.Entry()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	cond := f.NewReg()
	out := f.NewReg()
	b0.Instrs = append(b0.Instrs, ir.Instr{Op: ir.OpBin, BinKind: ir.BinGt, Dst: cond, A: 0, B: 0})
	b0.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{b1, b2}}
	b1.Instrs = append(b1.Instrs, ir.Instr{Op: ir.OpConst, Dst: out, Value: 1})
	b1.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{b3}}
	b2.Instrs = append(b2.Instrs, ir.Instr{Op: ir.OpConst, Dst: out, Value: 2})
	b2.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{b3}}
	b3.Term = ir.Terminator{Kind: ir.TermReturn, Val: out}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatalf("diamond does not verify: %v", err)
	}
	return f
}

// buildLoop constructs b0 → b1(header) → {b2(body) → b1, b3(exit)} with the
// loop bound defined in the entry block (LICM-hoisted shape).
func buildLoop(t testing.TB) *ir.Function {
	t.Helper()
	f := ir.NewFunction("loop", []string{"n"})
	b0 := f.Entry()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	i := f.NewReg()
	bound := f.NewReg()
	cond := f.NewReg()
	one := f.NewReg()
	b0.Instrs = append(b0.Instrs,
		ir.Instr{Op: ir.OpConst, Dst: i, Value: 0},
		ir.Instr{Op: ir.OpConst, Dst: bound, Value: 10},
		ir.Instr{Op: ir.OpConst, Dst: one, Value: 1})
	b0.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{b1}}
	b1.Instrs = append(b1.Instrs, ir.Instr{Op: ir.OpBin, BinKind: ir.BinLt, Dst: cond, A: i, B: bound})
	b1.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{b2, b3}}
	b2.Instrs = append(b2.Instrs, ir.Instr{Op: ir.OpBin, BinKind: ir.BinAdd, Dst: i, A: i, B: one})
	b2.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{b1}}
	b3.Term = ir.Terminator{Kind: ir.TermReturn, Val: i}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatalf("loop does not verify: %v", err)
	}
	return f
}

// TestDomTree: the lint suite's reachability comes from ir's dominator
// tree; the loop's dominance facts hold on it and a block no edge reaches
// is the one checkUnreachable reports.
func TestDomTree(t *testing.T) {
	f := buildLoop(t)
	orphan := f.NewBlock()
	orphan.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	dt := f.DomTree()
	b := f.Blocks
	for _, b2 := range b[1:4] {
		if !dt.Dominates(b[0], b2) {
			t.Errorf("entry should dominate b%d", b2.ID)
		}
	}
	if !dt.Dominates(b[1], b[2]) || !dt.Dominates(b[1], b[3]) {
		t.Error("loop header should dominate body and exit")
	}
	if dt.Dominates(b[2], b[3]) {
		t.Error("loop body must not dominate the exit")
	}
	if dt.Dominates(b[2], b[1]) {
		t.Error("back edge must not make the body dominate the header")
	}
	if dt.Reachable(orphan) || dt.Dominates(b[0], orphan) {
		t.Error("a block no edge reaches must be outside the tree")
	}
	diags := checkUnreachable(f, dt)
	if len(diags) != 1 || diags[0].Block != orphan.ID {
		t.Errorf("want one unreachable finding on b%d, got %v", orphan.ID, diags)
	}
}

// Regression: a must-analysis over a loop must not lose facts established
// before the loop — the back-edge predecessor's out-value starts at top, not
// bottom. (The symptom was spurious use-before-def warnings on every
// LICM-hoisted loop bound.)
func TestDefiniteAssignmentAcrossBackEdge(t *testing.T) {
	f := buildLoop(t)
	diags := checkUseBeforeDef(f)
	if len(diags) != 0 {
		t.Fatalf("loop with entry-defined registers should be clean, got %v", diags)
	}
}

func TestUseBeforeDefError(t *testing.T) {
	f := buildDiamond(t)
	// Read a register that has no definition anywhere.
	ghost := f.NewReg()
	f.Blocks[3].Term.Val = ghost
	diags := checkUseBeforeDef(f)
	e := FirstError(diags)
	if e == nil || e.Check != "use-before-def" || !strings.Contains(e.Msg, "no definition reaches") {
		t.Fatalf("want no-reaching-def error, got %v", diags)
	}
}

func TestUseBeforeDefWarningOnPartialPath(t *testing.T) {
	f := buildDiamond(t)
	// Kill the definition in the else arm: the join's use is now assigned
	// only when the then arm ran.
	f.Blocks[2].Instrs = nil
	diags := checkUseBeforeDef(f)
	if ErrorCount(diags) != 0 {
		t.Fatalf("partially assigned use must be a warning, got %v", diags)
	}
	found := false
	for _, d := range diags {
		if d.Sev == SevWarning && strings.Contains(d.Msg, "on some path") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want may-be-unassigned warning, got %v", diags)
	}
}

func TestUnreachableBlockWarning(t *testing.T) {
	f := buildDiamond(t)
	// Retarget the branch so the else arm is orphaned.
	f.Blocks[0].Term.Kind = ir.TermJump
	f.Blocks[0].Term.Cond = ir.NoReg
	f.Blocks[0].Term.Succs = []*ir.Block{f.Blocks[1]}
	f.RebuildCFG()
	diags := CheckFunction(f, Options{})
	found := false
	for _, d := range diags {
		if d.Check == "unreachable" && d.Sev == SevWarning && d.Block == f.Blocks[2].ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("want unreachable warning for b%d, got %v", f.Blocks[2].ID, diags)
	}
}

// annotate gives the diamond a consistent 60/40 flow.
func annotateDiamond(f *ir.Function) {
	w := []uint64{100, 60, 40, 100}
	for i, b := range f.Blocks {
		b.Weight = w[i]
		b.HasWeight = true
	}
	f.Blocks[0].Term.EdgeW = []uint64{60, 40}
	f.Blocks[1].Term.EdgeW = []uint64{60}
	f.Blocks[2].Term.EdgeW = []uint64{40}
	f.EntryCount = 100
	f.HasProfile = true
}

func TestFlowConservationClean(t *testing.T) {
	f := buildDiamond(t)
	annotateDiamond(f)
	if diags := checkFlow(f, DefaultOptions()); len(diags) != 0 {
		t.Fatalf("consistent flow flagged: %v", diags)
	}
}

func TestFlowConservationViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*ir.Function)
		want    string
	}{
		{"outflow", func(f *ir.Function) { f.Blocks[0].Term.EdgeW[0] = 10 }, "outgoing edge weights"},
		{"inflow", func(f *ir.Function) { f.Blocks[1].Weight = 10; f.Blocks[1].Term.EdgeW[0] = 10 }, "incoming edge weights"},
		{"parallel", func(f *ir.Function) { f.Blocks[0].Term.EdgeW = f.Blocks[0].Term.EdgeW[:1] }, "edge weights for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildDiamond(t)
			annotateDiamond(f)
			tc.corrupt(f)
			diags := checkFlow(f, DefaultOptions())
			e := FirstError(diags)
			if e == nil || !strings.Contains(e.Msg, tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, diags)
			}
		})
	}
}

func TestFlowPartialAnnotationIsSingleWarning(t *testing.T) {
	f := buildDiamond(t)
	annotateDiamond(f)
	f.Blocks[2].HasWeight = false
	diags := checkFlow(f, DefaultOptions())
	if len(diags) != 1 || diags[0].Sev != SevWarning {
		t.Fatalf("want exactly one warning, got %v", diags)
	}
}

func TestProbeLint(t *testing.T) {
	mk := func() *ir.Function {
		f := buildDiamond(t)
		p := ir.NewProgram()
		p.AddFunc(f)
		probe.InsertProgram(p)
		return f
	}
	if diags := checkProbes(mk()); ErrorCount(diags) != 0 {
		t.Fatalf("freshly probed function flagged: %v", diags)
	}

	f := mk()
	f.Blocks[1].Instrs[0].Probe.Factor = 0
	if e := FirstError(checkProbes(f)); e == nil || !strings.Contains(e.Msg, "duplication factor") {
		t.Fatalf("want factor error, got %v", checkProbes(f))
	}

	f = mk()
	f.Blocks[1].Instrs[0].Probe.ID = f.NumProbes + 7
	if e := FirstError(checkProbes(f)); e == nil || !strings.Contains(e.Msg, "allocated probes") {
		t.Fatalf("want out-of-allocation error, got %v", checkProbes(f))
	}

	f = mk()
	f.Blocks[1].Instrs[0].Probe.Kind = ir.ProbeCall
	if e := FirstError(checkProbes(f)); e == nil || !strings.Contains(e.Msg, "kind") {
		t.Fatalf("want kind-confusion error, got %v", checkProbes(f))
	}

	// Coverage gaps are warnings, not errors.
	f = mk()
	f.Blocks[2].Instrs = f.Blocks[2].Instrs[1:]
	diags := checkProbes(f)
	if ErrorCount(diags) != 0 {
		t.Fatalf("missing block probe must be a warning, got %v", diags)
	}
	if len(diags) == 0 || !strings.Contains(diags[0].Msg, "coverage gap") {
		t.Fatalf("want coverage-gap warning, got %v", diags)
	}
}

func TestCheckProfile(t *testing.T) {
	fresh := func() (*profdata.Profile, *ir.Program) {
		p := ir.NewProgram()
		f := buildDiamond(t)
		f.Name = "main"
		p.AddFunc(f)
		probe.InsertProgram(p)

		prof := profdata.New(profdata.ProbeBased, true)
		fp := profdata.NewFunctionProfile("main")
		fp.Checksum = f.Checksum
		fp.Blocks[profdata.LocKey{ID: 1}] = 80
		fp.Blocks[profdata.LocKey{ID: 2}] = 20
		fp.TotalSamples = 100
		fp.HeadSamples = 50
		prof.Funcs["main"] = fp

		cp := profdata.NewFunctionProfile("main")
		cp.Context = profdata.NewContext("main")
		cp.Checksum = f.Checksum
		cp.Blocks[profdata.LocKey{ID: 1}] = 7
		cp.TotalSamples = 7
		prof.Contexts[cp.Context.Key()] = cp
		return prof, p
	}

	prof, prog := fresh()
	if diags := CheckProfile(prof, prog); ErrorCount(diags) != 0 {
		t.Fatalf("well-formed profile flagged: %v", diags)
	}

	prof, prog = fresh()
	prof.Funcs["main"].TotalSamples = 999
	if e := FirstError(CheckProfile(prof, prog)); e == nil || !strings.Contains(e.Msg, "TotalSamples") {
		t.Fatal("want body-sum mismatch error")
	}

	prof, prog = fresh()
	prof.Funcs["main"].Blocks[profdata.LocKey{ID: 1}] = ^uint64(0) - 3 // underflowed subtraction
	if e := FirstError(CheckProfile(prof, prog)); e == nil || !strings.Contains(e.Msg, "underflow") {
		t.Fatal("want underflow error")
	}

	prof, prog = fresh()
	cp := prof.Contexts[profdata.NewContext("main").Key()]
	delete(prof.Contexts, profdata.NewContext("main").Key())
	prof.Contexts["main @@ nonsense"] = cp
	if e := FirstError(CheckProfile(prof, prog)); e == nil || !strings.Contains(e.Msg, "context key") {
		t.Fatal("want malformed-key error")
	}

	prof, prog = fresh()
	prof.Funcs["ghost"] = profdata.NewFunctionProfile("ghost")
	diags := CheckProfile(prof, prog)
	if ErrorCount(diags) != 0 {
		t.Fatalf("unresolved function must only warn, got %v", diags)
	}
	found := false
	for _, d := range diags {
		if d.Sev == SevWarning && strings.Contains(d.Msg, "does not resolve") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want unresolved-function warning, got %v", diags)
	}

	// Stale checksum: warning, not error (annotation rejects it cleanly).
	prof, prog = fresh()
	prof.Funcs["main"].Checksum ^= 0xdead
	prof.Contexts[profdata.NewContext("main").Key()].Checksum ^= 0xdead
	diags = CheckProfile(prof, prog)
	if ErrorCount(diags) != 0 {
		t.Fatalf("stale checksum must only warn, got %v", diags)
	}
	found = false
	for _, d := range diags {
		if strings.Contains(d.Msg, "stale profile") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want staleness warning, got %v", diags)
	}

	// Probe ID beyond the allocation with matching checksums is corruption.
	prof, prog = fresh()
	prof.Funcs["main"].Blocks[profdata.LocKey{ID: 99}] = 0
	if e := FirstError(CheckProfile(prof, prog)); e == nil || !strings.Contains(e.Msg, "allocated probes") {
		t.Fatal("want out-of-allocation probe id error")
	}
}

func TestDiffLines(t *testing.T) {
	d := DiffLines("a\nb\nc\n", "a\nx\nc\n")
	want := "  a\n- b\n+ x\n  c\n"
	if d != want {
		t.Fatalf("diff = %q, want %q", d, want)
	}
	if DiffLines("same\n", "same\n") != "  same\n" {
		t.Fatal("identical texts should diff to shared lines only")
	}
}
