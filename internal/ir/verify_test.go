package ir

import (
	"strings"
	"testing"
)

// buildSwitch constructs:
//
//	b0: switch r0 [0 -> b1, 1 -> b2] default b3
//	b1/b2/b3: ret r0
func buildSwitch(t testing.TB) *Function {
	t.Helper()
	f := NewFunction("sw", []string{"x"})
	b0 := f.Entry()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b0.Term = Terminator{Kind: TermSwitch, Cond: 0, Cases: []int64{0, 1}, Succs: []*Block{b1, b2, b3}}
	for _, b := range []*Block{b1, b2, b3} {
		b.Term = Terminator{Kind: TermReturn, Val: 0}
	}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatalf("switch function does not verify: %v", err)
	}
	return f
}

func TestVerifySwitchEdgeWeightsParallel(t *testing.T) {
	f := buildSwitch(t)
	b0 := f.Entry()

	// Parallel weights (one per successor, including default) are fine.
	b0.Term.EdgeW = []uint64{10, 20, 5}
	if err := f.Verify(); err != nil {
		t.Fatalf("parallel switch edge weights rejected: %v", err)
	}

	// Weights covering only the cases but not the default are a profile
	// corruption Verify must catch.
	b0.Term.EdgeW = []uint64{10, 20}
	err := f.Verify()
	if err == nil || !strings.Contains(err.Error(), "not parallel") {
		t.Fatalf("want edge-weight parallelism error, got %v", err)
	}
}

func TestVerifySwitchSuccArity(t *testing.T) {
	f := buildSwitch(t)
	b0 := f.Entry()
	// Dropping the default successor must fail: a switch needs one
	// successor per case plus the default.
	b0.Term.Succs = b0.Term.Succs[:2]
	err := f.Verify()
	if err == nil || !strings.Contains(err.Error(), "succs") {
		t.Fatalf("want switch arity error, got %v", err)
	}
}

func TestVerifySelectOperands(t *testing.T) {
	f := NewFunction("sel", []string{"c", "a", "b"})
	b0 := f.Entry()
	dst := f.NewReg()
	b0.Instrs = append(b0.Instrs, Instr{Op: OpSelect, Dst: dst, A: 0, B: 1, C: 2})
	b0.Term = Terminator{Kind: TermReturn, Val: dst}
	if err := f.Verify(); err != nil {
		t.Fatalf("valid select rejected: %v", err)
	}

	// Each operand slot must be range-checked independently.
	for slot, corrupt := range map[string]func(*Instr){
		"A": func(in *Instr) { in.A = Reg(f.NRegs) },
		"B": func(in *Instr) { in.B = Reg(f.NRegs + 3) },
		"C": func(in *Instr) { in.C = -2 },
	} {
		g := CloneFunction(f)
		corrupt(&g.Entry().Instrs[0])
		err := g.Verify()
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("select with bad %s operand: want range error, got %v", slot, err)
		}
	}
}

func TestVerifyProbeNeedsPayload(t *testing.T) {
	f := buildDiamond(t)
	f.Entry().Instrs = append([]Instr{{Op: OpProbe, Dst: NoReg}}, f.Entry().Instrs...)
	err := f.Verify()
	if err == nil || !strings.Contains(err.Error(), "without payload") {
		t.Fatalf("want probe payload error, got %v", err)
	}
}

// TestVerifySymbolOpcodesNeedSym: the four opcodes that name a symbol
// carry it in their operand record's Sym, and Verify rejects each without
// a record or with an empty Sym.
func TestVerifySymbolOpcodesNeedSym(t *testing.T) {
	for _, c := range []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpLoadG, Dst: 0, Index: NoReg}, "global access without name"},
		{Instr{Op: OpStoreG, A: 0, Index: NoReg}, "global access without name"},
		{Instr{Op: OpCall, Dst: NoReg}, "call without callee"},
		{Instr{Op: OpFuncRef, Dst: 0}, "funcref without target"},
	} {
		f := NewFunction("f", []string{"x"})
		f.Entry().Instrs = []Instr{c.in}
		f.Entry().Term = Terminator{Kind: TermReturn, Val: NoReg}
		f.RebuildCFG()
		for _, ext := range []*Operands{nil, {}, {Args: []Reg{0}}} {
			f.Entry().Instrs[0].Ext = ext
			err := f.Verify()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%v with record %+v: want %q, got %v", c.in.Op, ext, c.want, err)
			}
		}
		f.Entry().Instrs[0].Ext = &Operands{Sym: "s"}
		if err := f.Verify(); err != nil {
			t.Errorf("%v with Sym %q: %v", c.in.Op, "s", err)
		}
	}
}
