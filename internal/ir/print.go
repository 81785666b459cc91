package ir

import (
	"fmt"
	"strings"
)

func regStr(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("%%%d", r)
}

// String renders an instruction in a readable single-line form.
func (in *Instr) String() string {
	var s string
	switch in.Op {
	case OpConst:
		s = fmt.Sprintf("%s = const %d", regStr(in.Dst), in.Value)
	case OpBin:
		s = fmt.Sprintf("%s = %s %s, %s", regStr(in.Dst), in.BinKind, regStr(in.A), regStr(in.B))
	case OpNot:
		s = fmt.Sprintf("%s = not %s", regStr(in.Dst), regStr(in.A))
	case OpNeg:
		s = fmt.Sprintf("%s = neg %s", regStr(in.Dst), regStr(in.A))
	case OpMove:
		s = fmt.Sprintf("%s = mov %s", regStr(in.Dst), regStr(in.A))
	case OpLoadG:
		if in.Index == NoReg {
			s = fmt.Sprintf("%s = loadg @%s", regStr(in.Dst), in.Sym())
		} else {
			s = fmt.Sprintf("%s = loadg @%s[%s]", regStr(in.Dst), in.Sym(), regStr(in.Index))
		}
	case OpStoreG:
		if in.Index == NoReg {
			s = fmt.Sprintf("storeg @%s, %s", in.Sym(), regStr(in.A))
		} else {
			s = fmt.Sprintf("storeg @%s[%s], %s", in.Sym(), regStr(in.Index), regStr(in.A))
		}
	case OpCall:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = regStr(a)
		}
		s = fmt.Sprintf("%s = call %s(%s)", regStr(in.Dst), in.Sym(), strings.Join(args, ", "))
		if in.Probe != nil {
			s += fmt.Sprintf(" !callprobe %d", in.Probe.ID)
		}
	case OpSelect:
		s = fmt.Sprintf("%s = select %s, %s, %s", regStr(in.Dst), regStr(in.A), regStr(in.B), regStr(in.C))
	case OpFuncRef:
		s = fmt.Sprintf("%s = funcref @%s", regStr(in.Dst), in.Sym())
	case OpICall:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = regStr(a)
		}
		s = fmt.Sprintf("%s = icall (%s)(%s)", regStr(in.Dst), regStr(in.A), strings.Join(args, ", "))
		if in.Probe != nil {
			s += fmt.Sprintf(" !callprobe %d", in.Probe.ID)
		}
	case OpProbe:
		s = fmt.Sprintf("probe %s:%d", in.Probe.Func, in.Probe.ID)
		if in.Probe.Factor != 1.0 {
			s += fmt.Sprintf(" factor=%.3g", in.Probe.Factor)
		}
		if in.Probe.InlinedAt != nil {
			s += " @ " + in.Probe.InlinedAt.String()
		}
	case OpCounter:
		s = fmt.Sprintf("counter[%d]++", in.Value)
	default:
		s = fmt.Sprintf("op?%d", in.Op)
	}
	if in.Loc != nil && in.Op != OpProbe && in.Op != OpCounter {
		s += fmt.Sprintf("  ; %s", in.Loc)
	}
	return s
}

// String renders a terminator.
func (t *Terminator) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jump b%d", t.Succs[0].ID)
	case TermBranch:
		return fmt.Sprintf("br %s, b%d, b%d", regStr(t.Cond), t.Succs[0].ID, t.Succs[1].ID)
	case TermSwitch:
		parts := make([]string, 0, len(t.Cases)+1)
		for i, c := range t.Cases {
			parts = append(parts, fmt.Sprintf("%d=>b%d", c, t.Succs[i].ID))
		}
		parts = append(parts, fmt.Sprintf("default=>b%d", t.Succs[len(t.Succs)-1].ID))
		return fmt.Sprintf("switch %s [%s]", regStr(t.Cond), strings.Join(parts, " "))
	case TermReturn:
		return fmt.Sprintf("ret %s", regStr(t.Val))
	}
	return "term?"
}

// String renders the whole function with block weights when annotated.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%s) module=%s", f.Name, strings.Join(f.Params, ", "), f.Module)
	if f.HasProfile {
		fmt.Fprintf(&sb, " entry_count=%d", f.EntryCount)
	}
	sb.WriteString(" {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.ID)
		if b.HasWeight {
			fmt.Fprintf(&sb, "  ; weight=%d", b.Weight)
		}
		if b.Cold {
			sb.WriteString("  ; cold")
		}
		sb.WriteString("\n")
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
		}
		fmt.Fprintf(&sb, "  %s", b.Term.String())
		if len(b.Term.EdgeW) == len(b.Term.Succs) && len(b.Term.Succs) > 0 {
			fmt.Fprintf(&sb, "  ; edgew=%v", b.Term.EdgeW)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders the whole program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, n := range p.GOrder {
		g := p.Globals[n]
		fmt.Fprintf(&sb, "global @%s[%d]\n", g.Name, g.Size)
	}
	for _, f := range p.Functions() {
		sb.WriteString(f.String())
	}
	return sb.String()
}
