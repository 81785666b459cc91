package ir

import "testing"

// TestOperandModelAgreesWithVerify: Verify keeps its own per-opcode switch
// of which register fields an instruction has, so it can cross-check the
// one operand model everything else reads. For every opcode and every
// register field, an out-of-range register in that field must fail Verify
// exactly when Uses or Def reports the field; the same for terminators.
func TestOperandModelAgreesWithVerify(t *testing.T) {
	const nregs = 8
	// One function, one block, one instruction under test with a distinct
	// in-range register in every field.
	build := func(in Instr, term Terminator) *Function {
		f := NewFunction("f", nil)
		f.NRegs = nregs
		f.Entry().Instrs = []Instr{in}
		f.Entry().Term = term
		for i := range term.Succs {
			term.Succs[i] = f.Entry()
		}
		return f
	}
	ret := Terminator{Kind: TermReturn, Val: NoReg}
	fields := []struct {
		name string
		slot func(*Instr) *Reg
	}{
		{"Dst", func(in *Instr) *Reg { return &in.Dst }},
		{"A", func(in *Instr) *Reg { return &in.A }},
		{"B", func(in *Instr) *Reg { return &in.B }},
		{"C", func(in *Instr) *Reg { return &in.C }},
		{"Index", func(in *Instr) *Reg { return &in.Index }},
		{"Args[0]", func(in *Instr) *Reg { return &in.Args[0] }},
		{"Args[1]", func(in *Instr) *Reg { return &in.Args[1] }},
	}
	for op := OpConst; op <= OpCounter; op++ {
		fresh := func() Instr {
			return Instr{Op: op, Dst: 0, A: 1, B: 2, C: 3, Index: 4, Args: []Reg{5, 6},
				Callee: "g", Global: "G", Probe: &Probe{Func: "f", ID: 1, Factor: 1}}
		}
		valid := fresh()
		if err := build(valid, ret).Verify(); err != nil {
			t.Fatalf("opcode %d: the well-formed instruction does not verify: %v", op, err)
		}
		reported := map[Reg]bool{}
		valid.Uses(func(r Reg) { reported[r] = true })
		if valid.Def() != NoReg {
			if valid.Def() != valid.Dst {
				t.Errorf("opcode %d: Def() = %d, not the Dst field", op, valid.Def())
			}
			reported[valid.Def()] = true
		}
		for _, fld := range fields {
			in := fresh()
			model := reported[*fld.slot(&in)]
			*fld.slot(&in) = nregs + 5
			rejected := build(in, ret).Verify() != nil
			if rejected != model {
				t.Errorf("opcode %d field %s: operand model reports it = %v, Verify checks it = %v", op, fld.name, model, rejected)
			}
			// An absent operand is skipped by the model and accepted by Verify.
			*fld.slot(&in) = NoReg
			in.Uses(func(r Reg) {
				if r == NoReg {
					t.Errorf("opcode %d field %s: Uses visited NoReg", op, fld.name)
				}
			})
			in.MapUses(func(r Reg) Reg { return r + 1 })
			if *fld.slot(&in) != NoReg {
				t.Errorf("opcode %d field %s: MapUses rewrote an absent operand", op, fld.name)
			}
		}
		// MapUses rewrites exactly what Uses visits, and never Dst.
		mapped := fresh()
		mapped.MapUses(func(r Reg) Reg { return r + nregs })
		for _, fld := range fields {
			before, after := *fld.slot(&valid), *fld.slot(&mapped)
			want := before
			if fld.name != "Dst" && reported[before] {
				want = before + nregs
			}
			if after != want {
				t.Errorf("opcode %d field %s: MapUses left %d, want %d", op, fld.name, after, want)
			}
		}
	}

	// The pseudo-probe contract: no dataflow, never deleted.
	probe := Instr{Op: OpProbe, Probe: &Probe{Func: "f", ID: 1, Factor: 1}}
	probe.Uses(func(r Reg) { t.Errorf("a probe reads %%%d", r) })
	if probe.Def() != NoReg || !probe.HasSideEffects() {
		t.Errorf("a probe must write nothing and be kept: Def %d, HasSideEffects %v", probe.Def(), probe.HasSideEffects())
	}

	for kind := TermJump; kind <= TermReturn; kind++ {
		fresh := func() Terminator {
			tm := Terminator{Kind: kind, Cond: 1, Val: 2}
			switch kind {
			case TermJump:
				tm.Succs = make([]*Block, 1)
			case TermBranch:
				tm.Succs = make([]*Block, 2)
			case TermSwitch:
				tm.Cases, tm.Succs = []int64{7}, make([]*Block, 2)
			}
			return tm
		}
		nop := Instr{Op: OpCounter}
		valid := fresh()
		if err := build(nop, valid).Verify(); err != nil {
			t.Fatalf("terminator %d: the well-formed terminator does not verify: %v", kind, err)
		}
		reported := map[Reg]bool{}
		valid.Uses(func(r Reg) { reported[r] = true })
		for _, fld := range []struct {
			name string
			slot func(*Terminator) *Reg
		}{
			{"Cond", func(tm *Terminator) *Reg { return &tm.Cond }},
			{"Val", func(tm *Terminator) *Reg { return &tm.Val }},
		} {
			tm := fresh()
			model := reported[*fld.slot(&tm)]
			*fld.slot(&tm) = nregs + 5
			rejected := build(nop, tm).Verify() != nil
			if rejected != model {
				t.Errorf("terminator %d field %s: operand model reports it = %v, Verify checks it = %v", kind, fld.name, model, rejected)
			}
			tm = fresh()
			tm.MapUses(func(r Reg) Reg { return r + nregs })
			if got, want := *fld.slot(&tm) != *fld.slot(&valid), model; got != want {
				t.Errorf("terminator %d field %s: MapUses rewrote it = %v, Uses reports it = %v", kind, fld.name, got, want)
			}
		}
	}
}
