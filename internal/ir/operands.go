package ir

// The operand model: which registers an instruction reads, which one it
// writes, and whether it must be kept when its result is unused. Liveness
// and DCE, LICM's and if-convert's renaming, the cloner, the analysis
// suite's dataflow and the translation validator's liveness all go through
// these methods, so the pseudo-probe contract — a probe reads nothing,
// writes nothing and is never deleted — is stated here once. Verify keeps
// an independent per-opcode switch as the cross-check
// (TestOperandModelAgreesWithVerify).

// useSlots calls f on every register field the instruction reads, in
// operand order. It is the one per-opcode enumeration of read operands;
// NoReg slots are included (the callers below skip them).
func (in *Instr) useSlots(f func(*Reg)) {
	switch in.Op {
	case OpBin:
		f(&in.A)
		f(&in.B)
	case OpNot, OpNeg, OpMove:
		f(&in.A)
	case OpSelect:
		f(&in.A)
		f(&in.B)
		f(&in.C)
	case OpLoadG:
		f(&in.Index)
	case OpStoreG:
		f(&in.A)
		f(&in.Index)
	case OpICall:
		f(&in.A)
		fallthrough
	case OpCall:
		args := in.Args()
		for i := range args {
			f(&args[i])
		}
	}
}

// Uses visits every register the instruction reads; absent operands
// (NoReg) are skipped.
func (in *Instr) Uses(visit func(Reg)) {
	in.useSlots(func(r *Reg) {
		if *r != NoReg {
			visit(*r)
		}
	})
}

// MapUses replaces every register the instruction reads by fn of it;
// absent operands (NoReg) stay absent. A call's Args are rewritten in
// place, in the operand record the call owns.
func (in *Instr) MapUses(fn func(Reg) Reg) {
	in.useSlots(func(r *Reg) {
		if *r != NoReg {
			*r = fn(*r)
		}
	})
}

// Def returns the register the instruction writes, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Op {
	case OpStoreG, OpProbe, OpCounter:
		return NoReg
	}
	return in.Dst
}

// HasSideEffects reports whether the instruction must execute even when
// its result is unused: stores, calls, counters and probes. It is DCE's
// keep set.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStoreG, OpCall, OpICall, OpProbe, OpCounter:
		return true
	}
	return false
}

// useSlot returns the register field the terminator reads — a branch's or
// switch's condition, a return's value — or nil for a jump.
func (t *Terminator) useSlot() *Reg {
	switch t.Kind {
	case TermBranch, TermSwitch:
		return &t.Cond
	case TermReturn:
		return &t.Val
	}
	return nil
}

// Uses visits the register the terminator reads, if any.
func (t *Terminator) Uses(visit func(Reg)) {
	if r := t.useSlot(); r != nil && *r != NoReg {
		visit(*r)
	}
}

// MapUses replaces the register the terminator reads, if any, by fn of it.
func (t *Terminator) MapUses(fn func(Reg) Reg) {
	if r := t.useSlot(); r != nil && *r != NoReg {
		*r = fn(*r)
	}
}
