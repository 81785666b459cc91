package ir

import "testing"

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
	in := Instr{Op: OpCall, Sym: "f", Args: []Reg{1, 2, 3}, Dst: 4}
	out := in.Clone()
	out.Args[0] = 9
	if in.Args[0] == 9 {
		t.Fatal("Clone must deep-copy Args")
	}
}
