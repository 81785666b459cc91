package ir

import "fmt"

// Verify checks structural invariants of the function:
// terminator successor arity, register indices in range, probe payload
// presence, and that all successor blocks belong to the function.
//
// It keeps its own per-opcode list of operands — it is the independent
// oracle the operand model is checked against — and checks each operand as
// it names it, so a call costs one table by block ID whatever the
// function's size.
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	// The function's blocks by ID, offset by the lowest.
	minID, maxID := f.Blocks[0].ID, f.Blocks[0].ID
	for _, b := range f.Blocks {
		minID, maxID = min(minID, b.ID), max(maxID, b.ID)
	}
	byID := make([]*Block, maxID-minID+1)
	for _, b := range f.Blocks {
		if byID[b.ID-minID] != nil {
			return fmt.Errorf("%s: duplicate block id b%d", f.Name, b.ID)
		}
		byID[b.ID-minID] = b
	}
	for _, b := range f.Blocks {
		v := operandVerifier{f: f, b: b}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Check only the operands each opcode actually uses; unused
			// operand fields legitimately hold the zero value.
			switch in.Op {
			case OpConst:
				v.reg(in.Dst, "dst")
			case OpBin:
				v.reg(in.Dst, "dst")
				v.reg(in.A, "A")
				v.reg(in.B, "B")
			case OpNot, OpNeg, OpMove:
				v.reg(in.Dst, "dst")
				v.reg(in.A, "A")
			case OpLoadG:
				if in.Sym() == "" {
					return fmt.Errorf("%s b%d: global access without name", f.Name, b.ID)
				}
				v.reg(in.Dst, "dst")
				v.reg(in.Index, "index")
			case OpStoreG:
				if in.Sym() == "" {
					return fmt.Errorf("%s b%d: global access without name", f.Name, b.ID)
				}
				v.reg(in.A, "A")
				v.reg(in.Index, "index")
			case OpCall:
				if in.Sym() == "" {
					return fmt.Errorf("%s b%d: call without callee", f.Name, b.ID)
				}
				v.reg(in.Dst, "dst")
				for _, a := range in.Args() {
					v.reg(a, "arg")
				}
			case OpFuncRef:
				if in.Sym() == "" {
					return fmt.Errorf("%s b%d: funcref without target", f.Name, b.ID)
				}
				v.reg(in.Dst, "dst")
			case OpICall:
				v.reg(in.Dst, "dst")
				v.reg(in.A, "target")
				for _, a := range in.Args() {
					v.reg(a, "arg")
				}
			case OpSelect:
				v.reg(in.Dst, "dst")
				v.reg(in.A, "A")
				v.reg(in.B, "B")
				v.reg(in.C, "C")
			case OpProbe:
				if in.Probe == nil {
					return fmt.Errorf("%s b%d: probe instruction without payload", f.Name, b.ID)
				}
			case OpCounter:
				// no register operands
			default:
				return fmt.Errorf("%s b%d: unknown opcode %d", f.Name, b.ID, in.Op)
			}
			if v.err != nil {
				return v.err
			}
		}
		t := &b.Term
		want := -1
		switch t.Kind {
		case TermJump:
			want = 1
		case TermBranch:
			want = 2
			v.reg(t.Cond, "branch cond")
		case TermSwitch:
			want = len(t.Cases) + 1
			v.reg(t.Cond, "switch cond")
		case TermReturn:
			want = 0
			v.reg(t.Val, "return val")
		default:
			return fmt.Errorf("%s b%d: bad terminator kind %d", f.Name, b.ID, t.Kind)
		}
		if v.err != nil {
			return v.err
		}
		if len(t.Succs) != want {
			return fmt.Errorf("%s b%d: terminator %v wants %d succs, has %d", f.Name, b.ID, t.Kind, want, len(t.Succs))
		}
		for _, s := range t.Succs {
			if s.ID < minID || s.ID > maxID || byID[s.ID-minID] != s {
				return fmt.Errorf("%s b%d: successor b%d not in function", f.Name, b.ID, s.ID)
			}
		}
		if len(t.EdgeW) != 0 && len(t.EdgeW) != len(t.Succs) {
			return fmt.Errorf("%s b%d: edge weights (%d) not parallel to succs (%d)", f.Name, b.ID, len(t.EdgeW), len(t.Succs))
		}
	}
	return nil
}

// operandVerifier checks the register operands of one block's instructions
// and terminator, keeping the first one out of range.
type operandVerifier struct {
	f   *Function
	b   *Block
	err error
}

// reg checks one operand: absent (NoReg), or a register of the function.
func (v *operandVerifier) reg(r Reg, what string) {
	if v.err == nil && r != NoReg && (r < 0 || int(r) >= v.f.NRegs) {
		v.err = fmt.Errorf("%s b%d: %s register %%%d out of range [0,%d)", v.f.Name, v.b.ID, what, r, v.f.NRegs)
	}
}

// Verify checks every function and that all call targets resolve.
func (p *Program) Verify() error {
	for _, f := range p.Functions() {
		if err := f.Verify(); err != nil {
			return err
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == OpCall || in.Op == OpFuncRef {
					if _, ok := p.Funcs[in.Sym()]; !ok {
						return fmt.Errorf("%s: reference to undefined function %q", f.Name, in.Sym())
					}
				}
				if in.Op == OpLoadG || in.Op == OpStoreG {
					if _, ok := p.Globals[in.Sym()]; !ok {
						return fmt.Errorf("%s: access to undefined global %q", f.Name, in.Sym())
					}
				}
			}
		}
	}
	if _, ok := p.Funcs["main"]; !ok {
		return fmt.Errorf("program has no main function")
	}
	return nil
}
