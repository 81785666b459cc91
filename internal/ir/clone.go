package ir

// Clone returns a deep copy of the instruction (Args copied; Loc and Probe
// payloads are shared by default — callers that rewrite inline contexts
// must replace them, see RewriteProbe / RewriteLoc in the optimizer).
func (in *Instr) Clone() Instr {
	out := *in
	if in.Args != nil {
		out.Args = append([]Reg(nil), in.Args...)
	}
	return out
}

// CloneTerm deep-copies a terminator; successor pointers are remapped via
// bmap where present (unmapped successors are kept as-is, which lets loop
// cloning keep exit edges pointing at the original blocks).
func CloneTerm(t *Terminator, bmap map[*Block]*Block) Terminator {
	out := *t
	out.Succs = make([]*Block, len(t.Succs))
	for i, s := range t.Succs {
		if m, ok := bmap[s]; ok {
			out.Succs[i] = m
		} else {
			out.Succs[i] = s
		}
	}
	if t.Cases != nil {
		out.Cases = append([]int64(nil), t.Cases...)
	}
	if t.EdgeW != nil {
		out.EdgeW = append([]uint64(nil), t.EdgeW...)
	}
	return out
}

// CloneRegion copies the given blocks into f (via AdoptBlock), remapping
// intra-region successor edges. mapReg, when non-nil, rewrites every
// register operand (used by the inliner to shift callee registers into the
// caller's register space). The returned map gives original→clone.
func CloneRegion(f *Function, blocks []*Block, mapReg func(Reg) Reg) map[*Block]*Block {
	bmap := make(map[*Block]*Block, len(blocks))
	for _, b := range blocks {
		nb := &Block{
			Weight:    b.Weight,
			HasWeight: b.HasWeight,
			Cold:      b.Cold,
		}
		f.AdoptBlock(nb)
		bmap[b] = nb
	}
	for _, b := range blocks {
		nb := bmap[b]
		nb.Instrs = make([]Instr, len(b.Instrs))
		for i := range b.Instrs {
			ni := b.Instrs[i].Clone()
			if mapReg != nil {
				ni.MapUses(mapReg)
				if d := ni.Def(); d != NoReg {
					ni.Dst = mapReg(d)
				}
			}
			nb.Instrs[i] = ni
		}
		nb.Term = CloneTerm(&b.Term, bmap)
		if mapReg != nil {
			nb.Term.MapUses(mapReg)
		}
	}
	return bmap
}

// CloneFunction returns a deep copy of the function (fresh blocks, shared
// Loc/Probe payloads). Used to snapshot IR before destructive pipelines.
func CloneFunction(f *Function) *Function {
	nf := &Function{
		Name:        f.Name,
		Params:      append([]string(nil), f.Params...),
		NRegs:       f.NRegs,
		Module:      f.Module,
		StartLine:   f.StartLine,
		GUID:        f.GUID,
		Checksum:    f.Checksum,
		NumProbes:   f.NumProbes,
		SummarySize: f.SummarySize,
		EntryCount:  f.EntryCount,
		HasProfile:  f.HasProfile,
	}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Weight: b.Weight, HasWeight: b.HasWeight, Cold: b.Cold}
		bmap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
		if b.ID >= nf.nextBlockID {
			nf.nextBlockID = b.ID + 1
		}
	}
	for _, b := range f.Blocks {
		nb := bmap[b]
		nb.Instrs = make([]Instr, len(b.Instrs))
		for i := range b.Instrs {
			nb.Instrs[i] = b.Instrs[i].Clone()
		}
		nb.Term = CloneTerm(&b.Term, bmap)
	}
	nf.RebuildCFG()
	return nf
}

// CloneProgram deep-copies an entire program.
func CloneProgram(p *Program) *Program {
	np := NewProgram()
	for _, g := range p.GOrder {
		og := p.Globals[g]
		np.AddGlobal(&Global{Name: og.Name, Size: og.Size, Init: append([]int64(nil), og.Init...)})
	}
	for _, f := range p.Functions() {
		np.AddFunc(CloneFunction(f))
	}
	if p.DroppedChecksums != nil {
		np.DroppedChecksums = make(map[string]uint64, len(p.DroppedChecksums))
		for k, v := range p.DroppedChecksums {
			np.DroppedChecksums[k] = v
		}
	}
	return np
}
