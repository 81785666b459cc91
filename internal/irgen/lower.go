package irgen

import (
	"fmt"

	"csspgo/internal/ir"
	"csspgo/internal/source"
)

func (lw *fnLower) blockStmt(b *source.BlockStmt) error {
	lw.pushScope()
	defer lw.popScope()
	for _, s := range b.Stmts {
		if lw.terminated() {
			// Dead statements after return/break/continue: lower into a
			// fresh unreachable block (removed later) to keep semantics.
			lw.moveTo(lw.fn.NewBlock())
		}
		lw.resetTemps()
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *fnLower) stmt(s source.Stmt) error {
	switch st := s.(type) {
	case *source.BlockStmt:
		return lw.blockStmt(st)

	case *source.VarStmt:
		r, err := lw.expr(st.Init)
		if err != nil {
			return err
		}
		dst := lw.newPersistent()
		lw.emit(ir.Instr{Op: ir.OpMove, Dst: dst, A: r, Loc: lw.loc(st.Line)})
		lw.scopes[len(lw.scopes)-1][st.Name] = dst
		return nil

	case *source.AssignStmt:
		if r, ok := lw.lookup(st.Name); ok {
			v, err := lw.expr(st.Val)
			if err != nil {
				return err
			}
			lw.emit(ir.Instr{Op: ir.OpMove, Dst: r, A: v, Loc: lw.loc(st.Line)})
			return nil
		}
		if g, ok := lw.prog.Globals[st.Name]; ok {
			if g.Size != 1 {
				return fmt.Errorf("line %d: global array %q assigned without index", st.Line, st.Name)
			}
			v, err := lw.expr(st.Val)
			if err != nil {
				return err
			}
			lw.emit(ir.Instr{Op: ir.OpStoreG, Ext: lw.ref(st.Name), Index: ir.NoReg, A: v, Loc: lw.loc(st.Line)})
			return nil
		}
		return fmt.Errorf("line %d: assignment to undeclared variable %q", st.Line, st.Name)

	case *source.StoreStmt:
		g, ok := lw.prog.Globals[st.Global]
		if !ok {
			return fmt.Errorf("line %d: store to undeclared global %q", st.Line, st.Global)
		}
		if g.Size == 1 {
			return fmt.Errorf("line %d: indexing scalar global %q", st.Line, st.Global)
		}
		idx, err := lw.expr(st.Index)
		if err != nil {
			return err
		}
		v, err := lw.expr(st.Val)
		if err != nil {
			return err
		}
		lw.emit(ir.Instr{Op: ir.OpStoreG, Ext: lw.ref(st.Global), Index: idx, A: v, Loc: lw.loc(st.Line)})
		return nil

	case *source.IfStmt:
		cond, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		thenB := lw.fn.NewBlock()
		joinB := lw.fn.NewBlock()
		elseB := joinB
		if st.Else != nil {
			elseB = lw.fn.NewBlock()
		}
		lw.seal(ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{thenB, elseB}, Loc: lw.loc(st.Line)})
		lw.moveTo(thenB)
		if err := lw.blockStmt(st.Then); err != nil {
			return err
		}
		if !lw.terminated() {
			lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{joinB}})
		}
		if st.Else != nil {
			lw.moveTo(elseB)
			if err := lw.stmt(st.Else); err != nil {
				return err
			}
			if !lw.terminated() {
				lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{joinB}})
			}
		}
		lw.moveTo(joinB)
		return nil

	case *source.WhileStmt:
		head := lw.fn.NewBlock()
		body := lw.fn.NewBlock()
		exit := lw.fn.NewBlock()
		lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{head}})
		lw.moveTo(head)
		cond, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		lw.seal(ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{body, exit}, Loc: lw.loc(st.Line)})
		lw.breaks = append(lw.breaks, exit)
		lw.conts = append(lw.conts, head)
		lw.moveTo(body)
		if err := lw.blockStmt(st.Body); err != nil {
			return err
		}
		if !lw.terminated() {
			lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{head}})
		}
		lw.breaks = lw.breaks[:len(lw.breaks)-1]
		lw.conts = lw.conts[:len(lw.conts)-1]
		lw.moveTo(exit)
		return nil

	case *source.ForStmt:
		lw.pushScope() // init declarations scope over the whole loop
		defer lw.popScope()
		if st.Init != nil {
			if err := lw.stmt(st.Init); err != nil {
				return err
			}
		}
		head := lw.fn.NewBlock()
		body := lw.fn.NewBlock()
		post := lw.fn.NewBlock()
		exit := lw.fn.NewBlock()
		lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{head}})
		lw.moveTo(head)
		if st.Cond != nil {
			cond, err := lw.expr(st.Cond)
			if err != nil {
				return err
			}
			lw.seal(ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{body, exit}, Loc: lw.loc(st.Line)})
		} else {
			lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{body}})
		}
		lw.breaks = append(lw.breaks, exit)
		lw.conts = append(lw.conts, post)
		lw.moveTo(body)
		if err := lw.blockStmt(st.Body); err != nil {
			return err
		}
		if !lw.terminated() {
			lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{post}})
		}
		lw.breaks = lw.breaks[:len(lw.breaks)-1]
		lw.conts = lw.conts[:len(lw.conts)-1]
		lw.moveTo(post)
		if st.Post != nil {
			if err := lw.stmt(st.Post); err != nil {
				return err
			}
		}
		if !lw.terminated() {
			lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{head}})
		}
		lw.moveTo(exit)
		return nil

	case *source.SwitchStmt:
		cond, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		exit := lw.fn.NewBlock()
		term := ir.Terminator{Kind: ir.TermSwitch, Cond: cond, Loc: lw.loc(st.Line)}
		caseBlocks := make([]*ir.Block, len(st.Values))
		for i := range st.Values {
			caseBlocks[i] = lw.fn.NewBlock()
			term.Cases = append(term.Cases, st.Values[i])
			term.Succs = append(term.Succs, caseBlocks[i])
		}
		defB := exit
		if st.Default != nil {
			defB = lw.fn.NewBlock()
		}
		term.Succs = append(term.Succs, defB)
		lw.seal(term)
		lw.breaks = append(lw.breaks, exit)
		for i, body := range st.Bodies {
			lw.moveTo(caseBlocks[i])
			if err := lw.blockStmt(body); err != nil {
				return err
			}
			if !lw.terminated() {
				lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{exit}})
			}
		}
		if st.Default != nil {
			lw.moveTo(defB)
			if err := lw.blockStmt(st.Default); err != nil {
				return err
			}
			if !lw.terminated() {
				lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{exit}})
			}
		}
		lw.breaks = lw.breaks[:len(lw.breaks)-1]
		lw.moveTo(exit)
		return nil

	case *source.ReturnStmt:
		val := ir.NoReg
		if st.Val != nil {
			r, err := lw.expr(st.Val)
			if err != nil {
				return err
			}
			val = r
		}
		lw.seal(ir.Terminator{Kind: ir.TermReturn, Val: val, Loc: lw.loc(st.Line)})
		return nil

	case *source.BreakStmt:
		if len(lw.breaks) == 0 {
			return fmt.Errorf("line %d: break outside loop/switch", st.Line)
		}
		lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{lw.breaks[len(lw.breaks)-1]}, Loc: lw.loc(st.Line)})
		return nil

	case *source.ContinueStmt:
		if len(lw.conts) == 0 {
			return fmt.Errorf("line %d: continue outside loop", st.Line)
		}
		lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{lw.conts[len(lw.conts)-1]}, Loc: lw.loc(st.Line)})
		return nil

	case *source.ExprStmt:
		_, err := lw.expr(st.X)
		return err
	}
	return fmt.Errorf("unhandled statement %T", s)
}

// zero materializes the constant 0 into a statement temporary.
func (lw *fnLower) zero(line int) ir.Reg {
	r := lw.newTemp()
	lw.emit(ir.Instr{Op: ir.OpConst, Dst: r, Value: 0, Loc: lw.loc(line)})
	return r
}

var binOps = map[source.Kind]ir.BinKind{
	source.Plus: ir.BinAdd, source.Minus: ir.BinSub, source.Star: ir.BinMul,
	source.Slash: ir.BinDiv, source.Percent: ir.BinRem,
	source.Eq: ir.BinEq, source.Ne: ir.BinNe, source.Lt: ir.BinLt,
	source.Le: ir.BinLe, source.Gt: ir.BinGt, source.Ge: ir.BinGe,
}

func (lw *fnLower) expr(e source.Expr) (ir.Reg, error) {
	switch x := e.(type) {
	case *source.NumExpr:
		r := lw.newTemp()
		lw.emit(ir.Instr{Op: ir.OpConst, Dst: r, Value: x.Val, Loc: lw.loc(x.Line)})
		return r, nil

	case *source.VarExpr:
		if r, ok := lw.lookup(x.Name); ok {
			return r, nil
		}
		if g, ok := lw.prog.Globals[x.Name]; ok {
			if g.Size != 1 {
				return ir.NoReg, fmt.Errorf("line %d: global array %q used without index", x.Line, x.Name)
			}
			r := lw.newTemp()
			lw.emit(ir.Instr{Op: ir.OpLoadG, Dst: r, Ext: lw.ref(x.Name), Index: ir.NoReg, Loc: lw.loc(x.Line)})
			return r, nil
		}
		return ir.NoReg, fmt.Errorf("line %d: undeclared variable %q", x.Line, x.Name)

	case *source.IndexExpr:
		g, ok := lw.prog.Globals[x.Global]
		if !ok {
			return ir.NoReg, fmt.Errorf("line %d: undeclared global %q", x.Line, x.Global)
		}
		if g.Size == 1 {
			return ir.NoReg, fmt.Errorf("line %d: indexing scalar global %q", x.Line, x.Global)
		}
		idx, err := lw.expr(x.Index)
		if err != nil {
			return ir.NoReg, err
		}
		r := lw.newTemp()
		lw.emit(ir.Instr{Op: ir.OpLoadG, Dst: r, Ext: lw.ref(x.Global), Index: idx, Loc: lw.loc(x.Line)})
		return r, nil

	case *source.CallExpr:
		ext := lw.call(x.Callee, len(x.Args))
		for i, a := range x.Args {
			r, err := lw.expr(a)
			if err != nil {
				return ir.NoReg, err
			}
			ext.Args[i] = r
		}
		dst := lw.newTemp()
		lw.emit(ir.Instr{Op: ir.OpCall, Dst: dst, Ext: ext, Loc: lw.loc(x.Line)})
		return dst, nil

	case *source.FuncRefExpr:
		if _, ok := lw.prog.Funcs[x.Name]; !ok {
			// Forward references resolve at program verify; accept here.
		}
		dst := lw.newTemp()
		lw.emit(ir.Instr{Op: ir.OpFuncRef, Dst: dst, Ext: lw.ref(x.Name), Loc: lw.loc(x.Line)})
		return dst, nil

	case *source.IndirectCallExpr:
		target, err := lw.expr(x.Target)
		if err != nil {
			return ir.NoReg, err
		}
		var ext *ir.Operands // none when there is no argument
		if len(x.Args) > 0 {
			ext = lw.call("", len(x.Args))
		}
		for i, a := range x.Args {
			r, err := lw.expr(a)
			if err != nil {
				return ir.NoReg, err
			}
			ext.Args[i] = r
		}
		dst := lw.newTemp()
		lw.emit(ir.Instr{Op: ir.OpICall, Dst: dst, A: target, Ext: ext, Loc: lw.loc(x.Line)})
		return dst, nil

	case *source.UnExpr:
		v, err := lw.expr(x.X)
		if err != nil {
			return ir.NoReg, err
		}
		r := lw.newTemp()
		op := ir.OpNeg
		if x.Op == source.Not {
			op = ir.OpNot
		}
		lw.emit(ir.Instr{Op: op, Dst: r, A: v, Loc: lw.loc(x.Line)})
		return r, nil

	case *source.BinExpr:
		if x.Op == source.AndAnd || x.Op == source.OrOr {
			return lw.shortCircuit(x)
		}
		l, err := lw.expr(x.L)
		if err != nil {
			return ir.NoReg, err
		}
		r, err := lw.expr(x.R)
		if err != nil {
			return ir.NoReg, err
		}
		dst := lw.newTemp()
		lw.emit(ir.Instr{Op: ir.OpBin, BinKind: binOps[x.Op], Dst: dst, A: l, B: r, Loc: lw.loc(x.Line)})
		return dst, nil
	}
	return ir.NoReg, fmt.Errorf("unhandled expression %T", e)
}

// shortCircuit lowers && and || with control flow, as a C compiler would.
func (lw *fnLower) shortCircuit(x *source.BinExpr) (ir.Reg, error) {
	res := lw.newTemp()
	evalR := lw.fn.NewBlock()
	short := lw.fn.NewBlock()
	join := lw.fn.NewBlock()

	l, err := lw.expr(x.L)
	if err != nil {
		return ir.NoReg, err
	}
	if x.Op == source.AndAnd {
		// L true → evaluate R; L false → result 0.
		lw.seal(ir.Terminator{Kind: ir.TermBranch, Cond: l, Succs: []*ir.Block{evalR, short}, Loc: lw.loc(x.Line)})
	} else {
		// L true → result 1; L false → evaluate R.
		lw.seal(ir.Terminator{Kind: ir.TermBranch, Cond: l, Succs: []*ir.Block{short, evalR}, Loc: lw.loc(x.Line)})
	}

	lw.moveTo(short)
	shortVal := int64(0)
	if x.Op == source.OrOr {
		shortVal = 1
	}
	lw.emit(ir.Instr{Op: ir.OpConst, Dst: res, Value: shortVal, Loc: lw.loc(x.Line)})
	lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{join}})

	lw.moveTo(evalR)
	r, err := lw.expr(x.R)
	if err != nil {
		return ir.NoReg, err
	}
	// Normalize R to 0/1.
	z := lw.zero(x.Line)
	lw.emit(ir.Instr{Op: ir.OpBin, BinKind: ir.BinNe, Dst: res, A: r, B: z, Loc: lw.loc(x.Line)})
	lw.seal(ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{join}})

	lw.moveTo(join)
	return res, nil
}
