package ir

// Clone returns a deep copy of the instruction: a call gets a copy of its
// operand record, Args included. A record that only names a global or a
// function, and the Loc and Probe payloads, are shared — callers that
// rewrite inline contexts must replace them, see RewriteProbe /
// RewriteLoc in the optimizer.
func (in *Instr) Clone() Instr {
	out := *in
	if in.ownsExt() {
		ext := *in.Ext
		if ext.Args != nil {
			ext.Args = append([]Reg(nil), ext.Args...)
		}
		out.Ext = &ext
	}
	return out
}

// ownsExt reports whether the instruction's operand record belongs to it
// alone: a call's does, one that only names a global or a function is
// shared.
func (in *Instr) ownsExt() bool {
	return in.Ext != nil && (in.Op == OpCall || in.Op == OpICall)
}

// cloneInstrs gives each block of dst a copy of the instructions of the
// block of src at the same index, each call's operand record and Args
// included. Every instruction slice is carved from one slab, every record
// from a second and every Args from a third, each with no capacity to
// spare, so that appending to a block reallocates its slice instead of
// running into its neighbour's. With retSlot, each block that returns gets
// one slot to spare, carved for it alone.
func cloneInstrs(dst, src []*Block, retSlot bool) {
	nInstrs, nExts, nArgs := 0, 0, 0
	for _, b := range src {
		nInstrs += len(b.Instrs)
		if retSlot && b.Term.Kind == TermReturn {
			nInstrs++
		}
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.ownsExt() {
				nExts++
				nArgs += len(in.Ext.Args)
			}
		}
	}
	instrs, exts, args := make([]Instr, nInstrs), make([]Operands, nExts), make([]Reg, nArgs)
	for k, b := range src {
		n, c := copy(instrs, b.Instrs), len(b.Instrs)
		if retSlot && b.Term.Kind == TermReturn {
			c++
		}
		dst[k].Instrs, instrs = instrs[:n:c], instrs[c:]
		for i := range dst[k].Instrs {
			in := &dst[k].Instrs[i]
			if !in.ownsExt() {
				continue
			}
			exts[0] = *in.Ext
			in.Ext, exts = &exts[0], exts[1:]
			if in.Ext.Args != nil {
				n := copy(args, in.Ext.Args)
				in.Ext.Args, args = args[:n:n], args[n:]
			}
		}
	}
}

// cloneTerms gives each block of dst a deep copy of the terminator of the
// block of src at the same index. Successor pointers are remapped via bmap
// where present; unmapped successors are kept as they are, which lets loop
// cloning keep exit edges pointing at the original blocks. The successor
// lists, case values and edge weights are carved from one slab each, like
// cloneInstrs' slices.
func cloneTerms(dst, src []*Block, bmap map[*Block]*Block) {
	nSuccs, nCases, nEdgeW := 0, 0, 0
	for _, b := range src {
		nSuccs += len(b.Term.Succs)
		nCases += len(b.Term.Cases)
		nEdgeW += len(b.Term.EdgeW)
	}
	succs, cases, edgeW := make([]*Block, nSuccs), make([]int64, nCases), make([]uint64, nEdgeW)
	for k, b := range src {
		t := b.Term
		n := len(t.Succs)
		for i, s := range t.Succs {
			if m, ok := bmap[s]; ok {
				s = m
			}
			succs[i] = s
		}
		t.Succs, succs = succs[:n:n], succs[n:]
		if t.Cases != nil {
			n := copy(cases, t.Cases)
			t.Cases, cases = cases[:n:n], cases[n:]
		}
		if t.EdgeW != nil {
			n := copy(edgeW, t.EdgeW)
			t.EdgeW, edgeW = edgeW[:n:n], edgeW[n:]
		}
		dst[k].Term = t
	}
}

// CloneRegion copies the given blocks into f (via adoptBlock), remapping
// intra-region successor edges. mapReg, when non-nil, rewrites every
// register operand (used by the inliner to shift callee registers into the
// caller's register space). The returned map gives original→clone. Each
// cloned block that returns has room for one more instruction: the
// inliner turns its return into a jump and appends the move of the return
// value.
func CloneRegion(f *Function, blocks []*Block, mapReg func(Reg) Reg) map[*Block]*Block {
	bmap := make(map[*Block]*Block, len(blocks))
	clones := make([]Block, len(blocks))
	first := len(f.Blocks)
	for i, b := range blocks {
		nb := &clones[i]
		nb.Weight, nb.HasWeight, nb.Cold = b.Weight, b.HasWeight, b.Cold
		f.adoptBlock(nb)
		bmap[b] = nb
	}
	cloneInstrs(f.Blocks[first:], blocks, true)
	cloneTerms(f.Blocks[first:], blocks, bmap)
	if mapReg == nil {
		return bmap
	}
	for _, nb := range f.Blocks[first:] {
		for i := range nb.Instrs {
			ni := &nb.Instrs[i]
			ni.MapUses(mapReg)
			if d := ni.Def(); d != NoReg {
				ni.Dst = mapReg(d)
			}
		}
		nb.Term.MapUses(mapReg)
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
	clones := make([]Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &clones[i]
		nb.ID, nb.Weight, nb.HasWeight, nb.Cold = b.ID, b.Weight, b.HasWeight, b.Cold
		bmap[b] = nb
		nf.Blocks[i] = nb
		if b.ID >= nf.nextBlockID {
			nf.nextBlockID = b.ID + 1
		}
	}
	cloneInstrs(nf.Blocks, f.Blocks, false)
	cloneTerms(nf.Blocks, f.Blocks, bmap)
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
