// Package codegen lowers optimized IR to the machine-code model: it lays
// out functions (hot parts first, split cold parts at the end of the text
// section), linearizes blocks in their layout order with fallthrough
// elision, lowers switches to compare-and-branch chains, materializes
// pseudo-probes as metadata (or as real counter increments in
// instrumentation builds), and emits the debug line/inline tables.
package codegen

import (
	"fmt"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
)

// Options controls lowering.
type Options struct {
	// Instrument materializes block probes as counter-increment machine
	// instructions (traditional instrumentation-based PGO). When false,
	// probes become metadata records only (pseudo-instrumentation).
	Instrument bool
	// StripProbeMeta drops the probe metadata section (used to build
	// binaries whose size excludes probe metadata, e.g. AutoFDO builds).
	StripProbeMeta bool
}

type fixupKind uint8

const (
	fixBlock fixupKind = iota
	fixFunc
)

// fixup is a control-flow target to patch once addresses are known: the
// mark of a block (an index into lowerer.blockMark) or the start of a
// function (an index into the program's definition order).
type fixup struct {
	instr  int
	kind   fixupKind
	target int
	block  *ir.Block // fixBlock: the target, for the diagnostic
}

type probeMark struct {
	probe *ir.Probe
	instr int // anchor instruction index; may equal len(instrs) transiently
}

type lowerer struct {
	prog *ir.Program
	opts Options

	out    []machine.Instr
	fixups []fixup
	// blockMark is the index in out of each block's first instruction, -1
	// while unplaced: function i's block b is at markBase[i]+b.ID.
	blockMark []int
	markBase  []int
	cur       int // index of the function being emitted
	// hot and cold are each function's [lo, hi) range in out, by function
	// index.
	hot, cold  [][2]int
	argRegs    []int32 // every call's arguments, the binary's ArgRegs
	probeMarks []probeMark
	pending    []*ir.Probe

	counters map[machine.CounterKey]int32
	ckeys    []machine.CounterKey
}

// Lower compiles the program to a binary.
func Lower(p *ir.Program, opts Options) (*machine.Prog, error) {
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("codegen: input IR invalid: %w", err)
	}
	funcs := p.Functions()
	lw := &lowerer{
		prog:     p,
		opts:     opts,
		markBase: make([]int, len(funcs)),
		hot:      make([][2]int, len(funcs)),
		cold:     make([][2]int, len(funcs)),
		counters: map[machine.CounterKey]int32{},
	}
	lw.size(funcs)

	// Globals layout.
	goff := map[string]int32{}
	var ginit []int64
	for _, name := range p.GOrder {
		g := p.Globals[name]
		goff[name] = int32(len(ginit))
		vals := make([]int64, g.Size)
		copy(vals, g.Init)
		ginit = append(ginit, vals...)
	}

	// Function IDs in program order.
	fnID := map[string]int32{}
	for i, name := range p.Order {
		fnID[name] = int32(i)
	}

	// Emit all hot parts, then all cold parts.
	for i, f := range funcs {
		lw.cur = i
		lw.hot[i][0] = len(lw.out)
		lw.emitBlocks(f, fnID, goff, false)
		lw.hot[i][1] = len(lw.out)
	}
	for i, f := range funcs {
		lw.cur = i
		lw.cold[i][0] = len(lw.out)
		lw.emitBlocks(f, fnID, goff, true)
		lw.cold[i][1] = len(lw.out)
	}

	// Assign addresses.
	addr := uint64(0x1000)
	addrs := make([]uint64, len(lw.out)+1)
	for i := range lw.out {
		addrs[i] = addr
		lw.out[i].Addr = addr
		addr += uint64(machine.SizeOf(lw.out[i].Kind))
	}
	addrs[len(lw.out)] = addr

	addrOfMark := func(mark int) uint64 { return addrs[mark] }

	// Build symbol table.
	mp := &machine.Prog{
		Instrs:     lw.out,
		ArgRegs:    lw.argRegs,
		Layout:     machine.InstrLayout,
		FuncByName: map[string]*machine.Func{},
		GlobalSize: len(ginit),
		GlobalInit: ginit,
		GlobalOff:  goff,
		Checksums:  map[string]uint64{},
	}
	mp.Funcs = make([]*machine.Func, 0, len(funcs))
	for i, f := range funcs {
		name := f.Name
		mf := &machine.Func{
			ID:        int32(i),
			Name:      name,
			GUID:      f.GUID,
			Module:    f.Module,
			Start:     addrOfMark(lw.hot[i][0]),
			End:       addrOfMark(lw.hot[i][1]),
			NumRegs:   int32(f.NRegs) + 2, // +2 switch-lowering scratch
			NumParams: int32(len(f.Params)),
			StartLine: f.StartLine,
		}
		if lw.cold[i][1] > lw.cold[i][0] {
			mf.ColdStart = addrOfMark(lw.cold[i][0])
			mf.ColdEnd = addrOfMark(lw.cold[i][1])
		}
		mp.Funcs = append(mp.Funcs, mf)
		mp.FuncByName[name] = mf
		if f.NumProbes > 0 {
			mp.Checksums[name] = f.Checksum
		}
	}
	// Functions fully inlined away still own probe metadata records; their
	// checksums persist so profiles keyed on them stay verifiable.
	for name, sum := range p.DroppedChecksums {
		if _, ok := mp.Checksums[name]; !ok {
			mp.Checksums[name] = sum
		}
	}

	// Patch control-flow targets.
	for _, fx := range lw.fixups {
		switch fx.kind {
		case fixBlock:
			mark := lw.blockMark[fx.target]
			if mark < 0 {
				return nil, fmt.Errorf("codegen: unplaced block b%d", fx.block.ID)
			}
			lw.out[fx.instr].Target = addrOfMark(mark)
		case fixFunc:
			lw.out[fx.instr].Target = mp.Funcs[fx.target].Start
		}
	}

	// Materialize probe metadata.
	if !opts.StripProbeMeta {
		mp.Probes = make([]machine.ProbeRec, 0, len(lw.probeMarks))
		for _, pm := range lw.probeMarks {
			anchor := pm.instr
			if anchor >= len(lw.out) {
				anchor = len(lw.out) - 1
			}
			mp.Probes = append(mp.Probes, machine.ProbeRec{
				Func:      pm.probe.Func,
				ID:        pm.probe.ID,
				Kind:      pm.probe.Kind,
				Factor:    pm.probe.Factor,
				InlinedAt: pm.probe.InlinedAt,
				Addr:      addrs[anchor],
			})
		}
	}

	mp.NumCounters = int32(len(lw.ckeys))
	mp.CounterKeys = lw.ckeys
	mp.Instrumented = opts.Instrument
	if mf, ok := mp.FuncByName["main"]; ok {
		mp.EntryAddr = mf.Start
	}
	mp.ComputeSizes()
	return mp, nil
}

// size allocates what Lower fills, once, at the size the IR says it will
// have: out at the machine instructions every IR instruction and terminator
// lowers to at most (a branch whose successors both need a jump, a switch's
// compare-and-branch chain), the fixups, the block marks by function and
// block ID, the call arguments and the probe marks.
func (lw *lowerer) size(funcs []*ir.Function) {
	var instrs, fixups, marks, args, probes int
	for i, f := range funcs {
		lw.markBase[i] = marks
		maxID := 0
		for _, b := range f.Blocks {
			maxID = max(maxID, b.ID)
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Probe != nil {
					probes++
				}
				switch in.Op {
				case ir.OpProbe:
					if lw.opts.Instrument {
						instrs++
					}
					continue
				case ir.OpCall:
					fixups++
					args += len(in.Args())
				case ir.OpICall:
					args += len(in.Args())
				}
				instrs++
			}
			switch t := &b.Term; t.Kind {
			case ir.TermBranch:
				instrs += 2
			case ir.TermSwitch:
				instrs += 3*len(t.Cases) + 1
			default:
				instrs++
			}
			fixups += len(b.Term.Succs)
		}
		marks += maxID + 1
	}
	lw.out = make([]machine.Instr, 0, instrs)
	lw.fixups = make([]fixup, 0, fixups)
	lw.blockMark = make([]int, marks)
	for i := range lw.blockMark {
		lw.blockMark[i] = -1
	}
	lw.argRegs = make([]int32, 0, args)
	lw.probeMarks = make([]probeMark, 0, probes)
}

// args appends a call's argument registers to the slab size counted them
// into and returns where they start and how many there are.
func (lw *lowerer) args(regs []ir.Reg) (start, n int32) {
	start = int32(len(lw.argRegs))
	for _, a := range regs {
		lw.argRegs = append(lw.argRegs, int32(a))
	}
	return start, int32(len(regs))
}

// emitBlocks lowers the function's hot (cold=false) or cold (cold=true)
// blocks, in their current layout order.
func (lw *lowerer) emitBlocks(f *ir.Function, fnID map[string]int32, goff map[string]int32, cold bool) {
	// nextIn returns the first block of the section at or after position i.
	nextIn := func(i int) *ir.Block {
		for ; i < len(f.Blocks); i++ {
			if f.Blocks[i].Cold == cold {
				return f.Blocks[i]
			}
		}
		return nil
	}
	scratch1 := int32(f.NRegs)
	scratch2 := int32(f.NRegs) + 1

	for bi, b := range f.Blocks {
		if b.Cold != cold {
			continue
		}
		lw.blockMark[lw.markBase[lw.cur]+b.ID] = len(lw.out)
		next := nextIn(bi + 1)
		tailCalled := false
		var tailDst ir.Reg = ir.NoReg

		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpProbe:
				lw.emitProbe(in.Probe)
			case ir.OpConst:
				lw.emit(machine.Instr{Kind: machine.KConst, Dst: int32(in.Dst), Value: in.Value, Loc: in.Loc})
			case ir.OpBin:
				lw.emit(machine.Instr{Kind: machine.KOp, Op: ir.OpBin, Bin: in.BinKind,
					Dst: int32(in.Dst), A: int32(in.A), B: int32(in.B), Loc: in.Loc})
			case ir.OpNot:
				lw.emit(machine.Instr{Kind: machine.KOp, Op: ir.OpNot, Dst: int32(in.Dst), A: int32(in.A), B: -1, Loc: in.Loc})
			case ir.OpNeg:
				lw.emit(machine.Instr{Kind: machine.KOp, Op: ir.OpNeg, Dst: int32(in.Dst), A: int32(in.A), B: -1, Loc: in.Loc})
			case ir.OpMove:
				lw.emit(machine.Instr{Kind: machine.KOp, Op: ir.OpMove, Dst: int32(in.Dst), A: int32(in.A), B: -1, Loc: in.Loc})
			case ir.OpSelect:
				lw.emit(machine.Instr{Kind: machine.KSelect, Op: ir.OpSelect,
					Dst: int32(in.Dst), A: int32(in.A), B: int32(in.B), C: int32(in.C), Loc: in.Loc})
			case ir.OpLoadG:
				lw.emit(machine.Instr{Kind: machine.KLoad, Dst: int32(in.Dst),
					Ref: goff[in.Sym()], B: int32(in.Index), Loc: in.Loc})
			case ir.OpStoreG:
				lw.emit(machine.Instr{Kind: machine.KStore, A: int32(in.A),
					Ref: goff[in.Sym()], B: int32(in.Index), Loc: in.Loc})
			case ir.OpFuncRef:
				// Function ids are assigned by program order; materialize
				// as a constant and fix it up like any call target.
				lw.emit(machine.Instr{Kind: machine.KConst, Dst: int32(in.Dst),
					Value: int64(fnID[in.Sym()]), Loc: in.Loc})
			case ir.OpICall:
				if in.Probe != nil {
					lw.pending = append(lw.pending, in.Probe)
				}
				start, n := lw.args(in.Args())
				lw.emit(machine.Instr{Kind: machine.KICall, Dst: int32(in.Dst),
					A: int32(in.A), ArgStart: start, ArgCount: n, Loc: in.Loc})
			case ir.OpCall:
				// Call probe is metadata on the call's own address.
				kind := machine.KCall
				if in.TailCall {
					kind = machine.KTailCall
					tailCalled = true
					tailDst = in.Dst
				}
				if in.Probe != nil {
					lw.pending = append(lw.pending, in.Probe)
				}
				idx := len(lw.out)
				start, n := lw.args(in.Args())
				callee := fnID[in.Sym()]
				lw.emit(machine.Instr{Kind: kind, Dst: int32(in.Dst),
					Ref: callee, ArgStart: start, ArgCount: n, Loc: in.Loc})
				lw.fixups = append(lw.fixups, fixup{instr: idx, kind: fixFunc, target: int(callee)})
			case ir.OpCounter:
				lw.emit(machine.Instr{Kind: machine.KCounter, Ref: int32(in.Value), Loc: in.Loc})
			}
		}

		// Terminator.
		t := &b.Term
		switch t.Kind {
		case ir.TermReturn:
			if tailCalled && t.Val == tailDst {
				// The tail call transferred control; no ret is emitted.
				break
			}
			lw.emit(machine.Instr{Kind: machine.KRet, A: int32(t.Val), Loc: t.Loc})
		case ir.TermJump:
			if t.Succs[0] != next {
				lw.emitJump(t.Succs[0], t.Loc)
			}
		case ir.TermBranch:
			taken, fall := t.Succs[0], t.Succs[1]
			switch {
			case fall == next:
				lw.emitBranch(int32(t.Cond), taken, false, t.Loc)
			case taken == next:
				lw.emitBranch(int32(t.Cond), fall, true, t.Loc)
			default:
				lw.emitBranch(int32(t.Cond), taken, false, t.Loc)
				lw.emitJump(fall, t.Loc)
			}
		case ir.TermSwitch:
			for ci, cv := range t.Cases {
				lw.emit(machine.Instr{Kind: machine.KConst, Dst: scratch1, Value: cv, Loc: t.Loc})
				lw.emit(machine.Instr{Kind: machine.KOp, Op: ir.OpBin, Bin: ir.BinEq,
					Dst: scratch2, A: int32(t.Cond), B: scratch1, Loc: t.Loc})
				lw.emitBranch(scratch2, t.Succs[ci], false, t.Loc)
			}
			def := t.Succs[len(t.Succs)-1]
			if def != next {
				lw.emitJump(def, t.Loc)
			}
		}
	}

	// Probes pending at the end of the section anchor to the last
	// instruction emitted (the paper's "next physical instruction" rule,
	// degenerating at section end).
	lw.flushPendingTo(len(lw.out) - 1)
}

func (lw *lowerer) emit(in machine.Instr) {
	idx := len(lw.out)
	lw.out = append(lw.out, in)
	lw.flushPendingTo(idx)
}

// flushPendingTo anchors accumulated pseudo-probes to instruction idx.
func (lw *lowerer) flushPendingTo(idx int) {
	if len(lw.pending) == 0 {
		return
	}
	if idx < 0 {
		idx = 0
	}
	for _, pr := range lw.pending {
		lw.probeMarks = append(lw.probeMarks, probeMark{probe: pr, instr: idx})
	}
	lw.pending = lw.pending[:0]
}

func (lw *lowerer) emitProbe(p *ir.Probe) {
	if lw.opts.Instrument && p.Kind == ir.ProbeBlock {
		key := machine.CounterKey{Func: p.Func, ID: p.ID}
		id, ok := lw.counters[key]
		if !ok {
			id = int32(len(lw.ckeys))
			lw.counters[key] = id
			lw.ckeys = append(lw.ckeys, key)
		}
		lw.pending = append(lw.pending, p)
		lw.emit(machine.Instr{Kind: machine.KCounter, Ref: id})
		return
	}
	lw.pending = append(lw.pending, p)
}

func (lw *lowerer) emitJump(to *ir.Block, loc *ir.Loc) {
	idx := len(lw.out)
	lw.emit(machine.Instr{Kind: machine.KJump, Loc: loc})
	lw.fixups = append(lw.fixups, lw.blockFixup(idx, to))
}

// blockFixup is the fixup of instruction idx to a block of the function
// being emitted.
func (lw *lowerer) blockFixup(idx int, to *ir.Block) fixup {
	return fixup{instr: idx, kind: fixBlock, target: lw.markBase[lw.cur] + to.ID, block: to}
}

func (lw *lowerer) emitBranch(cond int32, to *ir.Block, neg bool, loc *ir.Loc) {
	idx := len(lw.out)
	lw.emit(machine.Instr{Kind: machine.KBranch, A: cond, BranchNeg: neg, Loc: loc})
	lw.fixups = append(lw.fixups, lw.blockFixup(idx, to))
}
