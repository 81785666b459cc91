package ir

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// buildDiamond constructs:
//
//	b0: r2 = r0 < r1; br r2, b1, b2
//	b1: r3 = const 1; jump b3
//	b2: r3 = const 2; jump b3
//	b3: ret r3
func buildDiamond(t testing.TB) *Function {
	t.Helper()
	f := NewFunction("diamond", []string{"a", "b"})
	b0 := f.Entry()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	cond := f.NewReg()
	out := f.NewReg()
	b0.Instrs = append(b0.Instrs, Instr{Op: OpBin, BinKind: BinLt, Dst: cond, A: 0, B: 1})
	b0.Term = Terminator{Kind: TermBranch, Cond: cond, Succs: []*Block{b1, b2}}
	b1.Instrs = append(b1.Instrs, Instr{Op: OpConst, Dst: out, Value: 1})
	b1.Term = Terminator{Kind: TermJump, Succs: []*Block{b3}}
	b2.Instrs = append(b2.Instrs, Instr{Op: OpConst, Dst: out, Value: 2})
	b2.Term = Terminator{Kind: TermJump, Succs: []*Block{b3}}
	b3.Term = Terminator{Kind: TermReturn, Val: out}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatalf("diamond does not verify: %v", err)
	}
	return f
}

// buildLoop constructs a simple counted loop:
//
//	b0: r1 = const 0; jump b1
//	b1: r2 = r1 < r0; br r2, b2, b3
//	b2: r1 = r1 + 1 (via const temp); jump b1
//	b3: ret r1
func buildLoop(t testing.TB) *Function {
	t.Helper()
	f := NewFunction("loop", []string{"n"})
	b0 := f.Entry()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	i := f.NewReg()
	cond := f.NewReg()
	one := f.NewReg()
	b0.Instrs = append(b0.Instrs, Instr{Op: OpConst, Dst: i, Value: 0})
	b0.Term = Terminator{Kind: TermJump, Succs: []*Block{b1}}
	b1.Instrs = append(b1.Instrs, Instr{Op: OpBin, BinKind: BinLt, Dst: cond, A: i, B: 0})
	b1.Term = Terminator{Kind: TermBranch, Cond: cond, Succs: []*Block{b2, b3}}
	b2.Instrs = append(b2.Instrs,
		Instr{Op: OpConst, Dst: one, Value: 1},
		Instr{Op: OpBin, BinKind: BinAdd, Dst: i, A: i, B: one})
	b2.Term = Terminator{Kind: TermJump, Succs: []*Block{b1}}
	b3.Term = Terminator{Kind: TermReturn, Val: i}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatalf("loop does not verify: %v", err)
	}
	return f
}

func TestNewFunctionHasEntry(t *testing.T) {
	f := NewFunction("f", []string{"x", "y"})
	if len(f.Blocks) != 1 {
		t.Fatalf("want 1 entry block, got %d", len(f.Blocks))
	}
	if f.NRegs != 2 {
		t.Fatalf("params should reserve registers: NRegs=%d", f.NRegs)
	}
	if f.GUID == 0 || f.GUID != GUIDFor("f") {
		t.Fatalf("GUID mismatch: %d vs %d", f.GUID, GUIDFor("f"))
	}
}

func TestGUIDStableAndDistinct(t *testing.T) {
	if GUIDFor("main") != GUIDFor("main") {
		t.Fatal("GUID not deterministic")
	}
	if GUIDFor("main") == GUIDFor("main2") {
		t.Fatal("GUID collision between distinct names")
	}
}

func TestVerifyCatchesBadSuccArity(t *testing.T) {
	f := buildDiamond(t)
	f.Blocks[0].Term.Succs = f.Blocks[0].Term.Succs[:1] // branch with 1 succ
	if err := f.Verify(); err == nil {
		t.Fatal("verify should reject branch with one successor")
	}
}

func TestVerifyCatchesOutOfRangeReg(t *testing.T) {
	f := buildDiamond(t)
	f.Blocks[1].Instrs[0].Dst = Reg(f.NRegs + 5)
	if err := f.Verify(); err == nil {
		t.Fatal("verify should reject out-of-range register")
	}
}

func TestVerifyCatchesForeignSuccessor(t *testing.T) {
	f := buildDiamond(t)
	g := buildLoop(t)
	f.Blocks[1].Term.Succs[0] = g.Blocks[0]
	if err := f.Verify(); err == nil {
		t.Fatal("verify should reject successor from another function")
	}
}

func TestProgramVerifyCatchesUndefinedCallee(t *testing.T) {
	p := NewProgram()
	f := NewFunction("main", nil)
	r := f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs, Instr{Op: OpCall, Dst: r, Ext: &Operands{Sym: "missing"}})
	f.Entry().Term = Terminator{Kind: TermReturn, Val: NoReg}
	p.AddFunc(f)
	if err := p.Verify(); err == nil {
		t.Fatal("program verify should reject undefined callee")
	}
}

func TestProgramVerifyRequiresMain(t *testing.T) {
	p := NewProgram()
	f := NewFunction("helper", nil)
	f.Entry().Term = Terminator{Kind: TermReturn, Val: NoReg}
	p.AddFunc(f)
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "main") {
		t.Fatalf("want missing-main error, got %v", err)
	}
}

func TestReachableOrderDiamond(t *testing.T) {
	f := buildDiamond(t)
	rpo := f.ReachableOrder()
	if len(rpo) != 4 {
		t.Fatalf("want 4 reachable blocks, got %d", len(rpo))
	}
	if rpo[0] != f.Entry() {
		t.Fatal("RPO must start at entry")
	}
	pos := map[*Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// Join block must come after both arms.
	if !(pos[f.Blocks[3]] > pos[f.Blocks[1]] && pos[f.Blocks[3]] > pos[f.Blocks[2]]) {
		t.Fatalf("join must follow both arms in RPO: %v", pos)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := buildDiamond(t)
	dead := f.NewBlock()
	dead.Term = Terminator{Kind: TermReturn, Val: NoReg}
	if n := f.RemoveUnreachable(); n != 1 {
		t.Fatalf("want 1 removed, got %d", n)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("want 4 blocks after removal, got %d", len(f.Blocks))
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := buildDiamond(t)
	dt := f.DomTree()
	b := f.Blocks
	if dt.idomOf(b[0]) != b[0] {
		t.Fatalf("entry must be its own idom, got %v", dt.idomOf(b[0]))
	}
	if dt.idomOf(b[1]) != b[0] || dt.idomOf(b[2]) != b[0] || dt.idomOf(b[3]) != b[0] {
		t.Fatalf("entry must dominate all: %v %v %v", dt.idomOf(b[1]).ID, dt.idomOf(b[2]).ID, dt.idomOf(b[3]).ID)
	}
	if !dt.Dominates(b[0], b[3]) {
		t.Fatal("entry should dominate join")
	}
	if dt.Dominates(b[1], b[3]) {
		t.Fatal("left arm must not dominate join")
	}
	// A block added after the tree was built is outside it.
	late := f.NewBlock()
	late.Term = Terminator{Kind: TermReturn, Val: NoReg}
	if dt.Reachable(late) || dt.idomOf(late) != nil || dt.Dominates(b[0], late) || dt.Dominates(late, late) {
		t.Fatal("a block the tree never saw must be unreachable and outside every dominance relation")
	}
	if f.DomTree().Reachable(late) {
		t.Fatal("a block no edge reaches must be unreachable in a fresh tree too")
	}
}

func TestNaturalLoops(t *testing.T) {
	f := buildLoop(t)
	loops, dt := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	l := loops[0]
	if l.Header != f.Blocks[1] {
		t.Fatalf("loop header should be b1, got b%d", l.Header.ID)
	}
	if !l.Contains(f.Blocks[2]) {
		t.Fatal("latch body must be in loop")
	}
	if l.Contains(f.Blocks[3]) {
		t.Fatal("exit must not be in loop")
	}
	if len(l.Latches) != 1 || l.Latches[0] != f.Blocks[2] {
		t.Fatalf("want latch b2, got %v", l.Latches)
	}
	if !dt.Dominates(l.Header, l.Latches[0]) || dt.Dominates(l.Latches[0], l.Header) {
		t.Fatal("the tree handed out with the loops must have the header dominate its latch, not the reverse")
	}
}

func TestDiamondHasNoLoops(t *testing.T) {
	f := buildDiamond(t)
	if loops, _ := f.NaturalLoops(); len(loops) != 0 {
		t.Fatalf("diamond should have no loops, got %d", len(loops))
	}
}

func TestLocString(t *testing.T) {
	inner := &Loc{Func: "callee", Line: 3}
	inner.Parent = &Loc{Func: "caller", Line: 12}
	if got := inner.String(); got != "callee:3 @ caller:12" {
		t.Fatalf("Loc.String = %q", got)
	}
	if inner.Depth() != 2 {
		t.Fatalf("Depth = %d", inner.Depth())
	}
	var nilLoc *Loc
	if nilLoc.String() != "?" {
		t.Fatal("nil Loc should print ?")
	}
}

// TestProbeSiteInlinedAt: inlining extends a probe's chain outward,
// copying the frames it had and leaving the original chain untouched.
func TestProbeSiteInlinedAt(t *testing.T) {
	site := &ProbeSite{Func: "main", CallID: 7}
	var top *ProbeSite
	if got := top.InlinedAt(site); got != site {
		t.Fatalf("nil chain inlined at %v = %v, want the site itself", site, got)
	}
	chain := &ProbeSite{Func: "mid", CallID: 2, Parent: &ProbeSite{Func: "handle", CallID: 4}}
	got := chain.InlinedAt(site)
	if s := got.String(); s != "mid:2 @ handle:4 @ main:7" {
		t.Fatalf("inlined chain = %q", s)
	}
	if s := chain.String(); s != "mid:2 @ handle:4" {
		t.Fatalf("original chain changed to %q", s)
	}
	if got.Parent.Parent != site {
		t.Fatal("the outermost frame must be the site, shared")
	}
}

func TestPrintSmoke(t *testing.T) {
	f := buildDiamond(t)
	s := f.String()
	for _, want := range []string{"func diamond(a, b)", "br %2, b1, b2", "ret %3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("printed function missing %q:\n%s", want, s)
		}
	}
}

func TestEnsureEdgeWeights(t *testing.T) {
	f := buildDiamond(t)
	tm := &f.Blocks[0].Term
	tm.EnsureEdgeWeights()
	if len(tm.EdgeW) != 2 {
		t.Fatalf("want 2 edge weights, got %d", len(tm.EdgeW))
	}
	tm.EdgeW[0] = 7
	tm.EnsureEdgeWeights()
	if tm.EdgeW[0] != 7 {
		t.Fatal("existing weights must be preserved")
	}
}

func TestReplaceSucc(t *testing.T) {
	f := buildDiamond(t)
	nb := f.NewBlock()
	nb.Term = Terminator{Kind: TermJump, Succs: []*Block{f.Blocks[3]}}
	f.Blocks[0].ReplaceSucc(f.Blocks[1], nb)
	f.RebuildCFG()
	if f.Blocks[0].Term.Succs[0] != nb {
		t.Fatal("ReplaceSucc did not rewrite edge")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after ReplaceSucc: %v", err)
	}
}

// TestInstrSize pins the packed size of an IR instruction: the fields are
// ordered so that only its last byte is padding.
func TestInstrSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit targets")
	}
	if got := unsafe.Sizeof(Instr{}); got != 56 {
		t.Errorf("ir.Instr is %d bytes, want 56", got)
	}
}

// TestInstrPointersFirst requires that no field holding a pointer follows a
// pointer-free one: the collector scans a value only up to its last pointer
// word, so with the pointers first it scans 24 of ir.Instr's 56 bytes. The
// operand record, Probe and Loc are the only fields that may hold one.
func TestInstrPointersFirst(t *testing.T) {
	typ := reflect.TypeFor[Instr]()
	scalar := ""
	for i := range typ.NumField() {
		f := typ.Field(i)
		if holdsPointer(f.Type) && f.Name != "Ext" && f.Name != "Probe" && f.Name != "Loc" {
			t.Errorf("ir.Instr: field %s holds a pointer; only Ext, Probe and Loc may", f.Name)
		}
		switch {
		case !holdsPointer(f.Type):
			if scalar == "" {
				scalar = f.Name
			}
		case scalar != "":
			t.Errorf("ir.Instr: pointer field %s follows pointer-free field %s", f.Name, scalar)
		}
	}
}

// holdsPointer reports whether a value of type t contains a word the
// garbage collector must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
