// Package irgen lowers MiniLang ASTs to the compiler IR, attaching debug
// locations (function + absolute source line) to every instruction the way
// a production frontend feeds DWARF line info.
package irgen

import (
	"fmt"
	"slices"

	"csspgo/internal/ir"
	"csspgo/internal/source"
)

// Lower lowers one or more parsed files into a single IR program. Each
// file's name becomes the module id of the functions it defines,
// reproducing the compilation-unit partitioning that ThinLTO sees.
func Lower(files ...*source.File) (*ir.Program, error) {
	p := ir.NewProgram()
	for _, f := range files {
		for _, g := range f.Globals {
			if _, dup := p.Globals[g.Name]; dup {
				return nil, fmt.Errorf("%s: global %q redefined", f.Name, g.Name)
			}
			init := make([]int64, g.Size)
			copy(init, g.Init)
			p.AddGlobal(&ir.Global{Name: g.Name, Size: g.Size, Init: init})
		}
	}
	// One operand record per global, carved from one slab and shared by
	// every instruction that names it; a function's is made on its first
	// funcref.
	refs := make(map[string]*ir.Operands, len(p.GOrder))
	grefs := make([]ir.Operands, len(p.GOrder))
	for i, g := range p.GOrder {
		grefs[i].Sym = g
		refs[g] = &grefs[i]
	}
	for _, f := range files {
		for _, fn := range f.Funcs {
			if _, dup := p.Funcs[fn.Name]; dup {
				return nil, fmt.Errorf("%s: function %q redefined", f.Name, fn.Name)
			}
			lowered, err := lowerFunc(p, refs, f.Name, fn)
			if err != nil {
				return nil, err
			}
			p.AddFunc(lowered)
		}
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// fnLower carries per-function lowering state.
//
// Register allocation mirrors a real frontend's virtual-register / stack
// slot discipline: parameters and named locals get persistent registers
// [0, tempBase), while expression temporaries are drawn from a pool that
// resets at every statement boundary. Reusing temp registers is what lets
// identical statements in sibling blocks produce identical code — the
// precondition for tail merging downstream.
type fnLower struct {
	prog   *ir.Program
	fn     *ir.Function
	cur    *ir.Block
	scopes []map[string]ir.Reg
	breaks []*ir.Block // innermost-last loop/switch break targets
	conts  []*ir.Block // innermost-last loop continue targets
	// isSealed records whether cur.Term was explicitly written; the zero
	// Terminator value is indistinguishable from "ret 0" otherwise.
	isSealed bool
	// instrs holds every block's instructions, sized from the AST: blocks
	// are filled one after the other and never returned to, so cur's are
	// instrs[curStart:] until closeBlock hands them over. exts and args are
	// the same for the calls' operand records and arguments.
	instrs   []ir.Instr
	curStart int
	exts     []ir.Operands
	args     []ir.Reg
	// refs holds the one operand record of each global or function the
	// program's instructions name, shared by all of them (see Lower).
	refs map[string]*ir.Operands
	// locs holds the one debug location of each source line of the
	// function, indexed from its first line and filled on first use.
	locs      []ir.Loc
	firstLine int

	nextPersistent int // next persistent register
	tempBase       int // first temp register (== total persistent count)
	tempNext       int // next temp register
}

func lowerFunc(prog *ir.Program, refs map[string]*ir.Operands, module string, decl *source.FuncDecl) (*ir.Function, error) {
	f := ir.NewFunction(decl.Name, decl.Params)
	f.Module = module
	f.StartLine = int32(decl.Line)
	lw := &fnLower{prog: prog, fn: f, cur: f.Entry(), refs: refs, firstLine: decl.Line}
	sz := astSize{globals: prog.Globals, lastLine: decl.Line}
	sz.stmt(decl.Body)
	// An instruction slot per instruction plus the spare one of every block,
	// the entry included; a location per line the function spans.
	lw.instrs = make([]ir.Instr, 0, sz.instrs+sz.blocks+1)
	lw.exts = make([]ir.Operands, 0, sz.calls)
	lw.args = make([]ir.Reg, 0, sz.args)
	lw.locs = make([]ir.Loc, sz.lastLine-decl.Line+1)
	lw.nextPersistent = len(decl.Params)
	lw.tempBase = len(decl.Params) + sz.vars
	lw.tempNext = lw.tempBase
	if f.NRegs < lw.tempBase {
		f.NRegs = lw.tempBase
	}
	lw.pushScope()
	for i, name := range decl.Params {
		if _, dup := lw.scopes[0][name]; dup {
			return nil, fmt.Errorf("%s: duplicate parameter %q", decl.Name, name)
		}
		lw.scopes[0][name] = ir.Reg(i)
	}
	if err := lw.blockStmt(decl.Body); err != nil {
		return nil, fmt.Errorf("%s: %w", decl.Name, err)
	}
	// Implicit `return 0` when control falls off the end.
	if !lw.terminated() {
		lw.cur.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	}
	lw.closeBlock()
	f.RemoveUnreachable()
	return f, nil
}

// astSize is what one walk over a function body counts before lowering:
// the named-local declarations (the persistent registers), the
// instructions and blocks lowering will emit, at most, short of the blocks
// that hold statements after a return, break or continue, the calls that
// get an operand record and their arguments, and the last source line.
type astSize struct {
	globals              map[string]*ir.Global // a name read as one costs a load
	vars, instrs, blocks int
	calls, args          int
	lastLine             int
}

func (z *astSize) stmt(s source.Stmt) {
	z.lastLine = max(z.lastLine, s.Pos())
	switch st := s.(type) {
	case *source.BlockStmt:
		for _, sub := range st.Stmts {
			z.stmt(sub)
		}
	case *source.VarStmt:
		z.vars++
		z.instrs++
		z.expr(st.Init)
	case *source.AssignStmt:
		z.instrs++
		z.expr(st.Val)
	case *source.StoreStmt:
		z.instrs++
		z.expr(st.Index)
		z.expr(st.Val)
	case *source.IfStmt:
		z.blocks += 2
		z.expr(st.Cond)
		z.stmt(st.Then)
		if st.Else != nil {
			z.blocks++
			z.stmt(st.Else)
		}
	case *source.WhileStmt:
		z.blocks += 3
		z.expr(st.Cond)
		z.stmt(st.Body)
	case *source.ForStmt:
		z.blocks += 4
		if st.Init != nil {
			z.stmt(st.Init)
		}
		if st.Cond != nil {
			z.expr(st.Cond)
		}
		if st.Post != nil {
			z.stmt(st.Post)
		}
		z.stmt(st.Body)
	case *source.SwitchStmt:
		z.blocks += len(st.Values) + 2
		z.expr(st.Cond)
		for _, b := range st.Bodies {
			z.stmt(b)
		}
		if st.Default != nil {
			z.stmt(st.Default)
		}
	case *source.ReturnStmt:
		if st.Val != nil {
			z.expr(st.Val)
		}
	case *source.ExprStmt:
		z.expr(st.X)
	}
}

func (z *astSize) expr(e source.Expr) {
	z.instrs++
	z.lastLine = max(z.lastLine, e.Pos())
	switch x := e.(type) {
	case *source.VarExpr:
		if z.globals[x.Name] == nil {
			z.instrs-- // a local: its register is the value
		}
	case *source.IndexExpr:
		z.expr(x.Index)
	case *source.CallExpr:
		z.calls++
		z.args += len(x.Args)
		for _, a := range x.Args {
			z.expr(a)
		}
	case *source.IndirectCallExpr:
		if len(x.Args) > 0 {
			z.calls++
			z.args += len(x.Args)
		}
		z.expr(x.Target)
		for _, a := range x.Args {
			z.expr(a)
		}
	case *source.UnExpr:
		z.expr(x.X)
	case *source.BinExpr:
		if x.Op == source.AndAnd || x.Op == source.OrOr {
			z.instrs += 2
			z.blocks += 3
		}
		z.expr(x.L)
		z.expr(x.R)
	}
}

// newTemp allocates an expression temporary from the per-statement pool.
func (lw *fnLower) newTemp() ir.Reg {
	r := ir.Reg(lw.tempNext)
	lw.tempNext++
	if lw.fn.NRegs < lw.tempNext {
		lw.fn.NRegs = lw.tempNext
	}
	return r
}

// newPersistent allocates a register for a named local.
func (lw *fnLower) newPersistent() ir.Reg {
	r := ir.Reg(lw.nextPersistent)
	lw.nextPersistent++
	return r
}

// resetTemps releases all statement temporaries.
func (lw *fnLower) resetTemps() { lw.tempNext = lw.tempBase }

func (lw *fnLower) pushScope() { lw.scopes = append(lw.scopes, map[string]ir.Reg{}) }
func (lw *fnLower) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *fnLower) lookup(name string) (ir.Reg, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if r, ok := lw.scopes[i][name]; ok {
			return r, true
		}
	}
	return ir.NoReg, false
}

// loc returns the debug location of a source line of the function: one
// per line, shared by every instruction and terminator on it.
func (lw *fnLower) loc(line int) *ir.Loc {
	i := line - lw.firstLine
	if i < 0 || i >= len(lw.locs) {
		// A line the AST walk did not see: a location of its own.
		return &ir.Loc{Func: lw.fn.Name, Line: int32(line)}
	}
	l := &lw.locs[i]
	if l.Func == "" {
		*l = ir.Loc{Func: lw.fn.Name, Line: int32(line)}
	}
	return l
}

// ref returns the operand record that names the global or function sym,
// one per name for the whole program.
func (lw *fnLower) ref(sym string) *ir.Operands {
	r := lw.refs[sym]
	if r == nil {
		r = &ir.Operands{Sym: sym}
		lw.refs[sym] = r
	}
	return r
}

// call returns a fresh operand record for a call to sym (empty for an
// indirect call) with room for n arguments, carved from the function's
// slabs. Should a slab grow, what was handed out stays where it is.
func (lw *fnLower) call(sym string, n int) *ir.Operands {
	start := len(lw.args)
	lw.args = slices.Grow(lw.args, n)[:start+n]
	lw.exts = append(lw.exts, ir.Operands{Sym: sym, Args: lw.args[start : start+n : start+n]})
	return &lw.exts[len(lw.exts)-1]
}

// terminated reports whether the current block already has a terminator.
func (lw *fnLower) terminated() bool { return lw.isSealed }

func (lw *fnLower) emit(in ir.Instr) {
	lw.instrs = append(lw.instrs, in)
}

// closeBlock hands cur the instructions emitted since the last block was
// closed, with room for one more — the block probe probe.InsertProgram puts first
// — and none beyond, so that appending to a block reallocates its slice
// instead of running into the next block's.
func (lw *fnLower) closeBlock() {
	end := len(lw.instrs)
	lw.instrs = append(lw.instrs, ir.Instr{})
	lw.cur.Instrs = lw.instrs[lw.curStart:end:len(lw.instrs)]
	lw.curStart = len(lw.instrs)
}

func (lw *fnLower) seal(t ir.Terminator) {
	lw.cur.Term = t
	lw.isSealed = true
}

func (lw *fnLower) moveTo(b *ir.Block) {
	lw.closeBlock()
	lw.cur = b
	lw.isSealed = false
}
