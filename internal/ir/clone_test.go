package ir

import (
	"strings"
	"testing"
)

func TestCloneFunctionIndependence(t *testing.T) {
	f := buildDiamond(t)
	f.Blocks[1].Weight = 42
	f.Blocks[1].HasWeight = true
	g := CloneFunction(f)
	if err := g.Verify(); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	if g.Blocks[1].Weight != 42 || !g.Blocks[1].HasWeight {
		t.Fatal("clone must copy block weights")
	}
	// Mutating the clone must not affect the original.
	g.Blocks[1].Instrs[0].Value = 999
	g.Blocks[0].Term.Succs[0] = g.Blocks[2]
	if f.Blocks[1].Instrs[0].Value == 999 {
		t.Fatal("instruction storage shared between clone and original")
	}
	if f.Blocks[0].Term.Succs[0] != f.Blocks[1] {
		t.Fatal("terminator successors shared between clone and original")
	}
	// Clone successors must point at clone blocks.
	for _, b := range g.Blocks {
		for _, s := range b.Term.Succs {
			found := false
			for _, gb := range g.Blocks {
				if s == gb {
					found = true
				}
			}
			if !found {
				t.Fatal("clone successor escapes into original function")
			}
		}
	}
}

func TestCloneRegionRemapsRegistersAndEdges(t *testing.T) {
	f := buildLoop(t)
	// Clone the loop body (header + latch) with a register shift of 100.
	region := []*Block{f.Blocks[1], f.Blocks[2]}
	base := f.NRegs
	for i := 0; i < 200; i++ {
		f.NewReg()
	}
	bmap := CloneRegion(f, region, func(r Reg) Reg { return r + Reg(base) })
	nh, nl := bmap[f.Blocks[1]], bmap[f.Blocks[2]]
	if nh == nil || nl == nil {
		t.Fatal("region blocks not cloned")
	}
	// Intra-region edge remapped: clone latch jumps to clone header.
	if nl.Term.Succs[0] != nh {
		t.Fatal("intra-region back edge not remapped")
	}
	// Edge leaving the region is preserved (exit stays original).
	if nh.Term.Succs[1] != f.Blocks[3] {
		t.Fatal("region-exiting edge must keep original target")
	}
	// Registers shifted.
	if nh.Instrs[0].Dst != region[0].Instrs[0].Dst+Reg(base) {
		t.Fatalf("register not remapped: %d vs %d", nh.Instrs[0].Dst, region[0].Instrs[0].Dst)
	}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatalf("function with cloned region fails verify: %v", err)
	}
}

func TestCloneProgram(t *testing.T) {
	p := NewProgram()
	p.AddGlobal(&Global{Name: "g", Size: 4, Init: []int64{1, 2, 3, 4}})
	f := NewFunction("main", nil)
	r := f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs, Instr{Op: OpConst, Dst: r, Value: 5})
	f.Entry().Term = Terminator{Kind: TermReturn, Val: r}
	p.AddFunc(f)
	q := CloneProgram(p)
	if err := q.Verify(); err != nil {
		t.Fatalf("program clone fails verify: %v", err)
	}
	q.Globals["g"].Init[0] = 77
	if p.Globals["g"].Init[0] == 77 {
		t.Fatal("global init storage shared")
	}
	q.Funcs["main"].Entry().Instrs[0].Value = 6
	if p.Funcs["main"].Entry().Instrs[0].Value == 6 {
		t.Fatal("function storage shared")
	}
}

func TestInstrCloneCopiesArgs(t *testing.T) {
	in := Instr{Op: OpCall, Ext: &Operands{Sym: "f", Args: []Reg{1, 2, 3}}, Dst: 4}
	out := in.Clone()
	out.Args()[0] = 9
	if in.Args()[0] == 9 {
		t.Fatal("Clone must deep-copy Args")
	}
}

// TestClonesOwnTheirCallOperands holds every clone path to the ownership
// rule of Operands: a cloned call gets a record of its own, so rewriting
// its callee or arguments in place leaves the original as it was.
func TestClonesOwnTheirCallOperands(t *testing.T) {
	build := func() *Program {
		p := NewProgram()
		p.AddGlobal(&Global{Name: "g", Size: 1, Init: []int64{0}})
		for _, name := range []string{"callee", "other"} {
			f := NewFunction(name, []string{"a", "b"})
			f.Entry().Term = Terminator{Kind: TermReturn, Val: 0}
			p.AddFunc(f)
		}
		f := NewFunction("main", []string{"x", "y"})
		r, fr := f.NewReg(), f.NewReg()
		f.Entry().Instrs = []Instr{
			{Op: OpCall, Dst: r, Ext: &Operands{Sym: "callee", Args: []Reg{0, 1}}},
			{Op: OpFuncRef, Dst: fr, Ext: &Operands{Sym: "callee"}},
			{Op: OpICall, Dst: r, A: fr, Ext: &Operands{Args: []Reg{1, 0}}},
			{Op: OpStoreG, A: r, Index: NoReg, Ext: &Operands{Sym: "g"}},
		}
		f.Entry().Term = Terminator{Kind: TermReturn, Val: r}
		f.RebuildCFG()
		p.AddFunc(f)
		return p
	}
	// mutate rewrites the callee and the arguments of every call of b the
	// way the passes do: through the record and through MapUses.
	mutate := func(b *Block) {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpCall {
				in.Ext.Sym = "other"
			}
			in.MapUses(func(r Reg) Reg { return r ^ 1 })
		}
	}
	for _, path := range []struct {
		name  string
		clone func(p *Program) *Block
	}{
		{"Clone", func(p *Program) *Block {
			b := &Block{}
			for _, in := range p.Funcs["main"].Entry().Instrs {
				b.Instrs = append(b.Instrs, in.Clone())
			}
			return b
		}},
		{"cloneInstrs", func(p *Program) *Block {
			dst := []*Block{{}}
			cloneInstrs(dst, p.Funcs["main"].Blocks[:1], false)
			return dst[0]
		}},
		{"CloneRegion", func(p *Program) *Block {
			f := p.Funcs["main"]
			return CloneRegion(f, f.Blocks[:1], nil)[f.Entry()]
		}},
		{"CloneFunction", func(p *Program) *Block { return CloneFunction(p.Funcs["main"]).Entry() }},
		{"CloneProgram", func(p *Program) *Block { return CloneProgram(p).Funcs["main"].Entry() }},
	} {
		p := build()
		want := instrsText(p.Funcs["main"].Entry())
		b := path.clone(p)
		mutate(b)
		if got := instrsText(p.Funcs["main"].Entry()); got != want {
			t.Errorf("%s: rewriting the clone's calls changed the original:\n%s\nwant\n%s", path.name, got, want)
		}
		if got := instrsText(b); got == want {
			t.Errorf("%s: the rewrite did not reach the clone:\n%s", path.name, got)
		}
		if err := p.Verify(); err != nil {
			t.Errorf("%s: original no longer verifies: %v", path.name, err)
		}
	}
}

// instrsText renders the instructions of b, one a line.
func instrsText(b *Block) string {
	var sb strings.Builder
	for i := range b.Instrs {
		sb.WriteString(b.Instrs[i].String() + "\n")
	}
	return sb.String()
}
