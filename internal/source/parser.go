package source

import "fmt"

// parser is a recursive-descent parser for MiniLang.
type parser struct {
	toks []token
	pos  int
	name string
}

// Parse parses one MiniLang file. name becomes the module id.
func Parse(name, src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &parser{toks: toks, name: name}
	f, err := p.file()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return f, nil
}

func (p *parser) peek() token    { return p.toks[p.pos] }
func (p *parser) next() token    { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k Kind) bool { return p.peek().Kind == k }

func (p *parser) accept(k Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k Kind) (token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, fmt.Errorf("line %d: expected %s, found %s", t.Line, k, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) file() (*File, error) {
	f := &File{Name: p.name}
	for !p.at(eof) {
		switch p.peek().Kind {
		case kwGlobal:
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, g)
		case kwFunc:
			fn, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		default:
			t := p.peek()
			return nil, fmt.Errorf("line %d: expected 'func' or 'global', found %s", t.Line, t)
		}
	}
	return f, nil
}

// globalDecl := "global" IDENT ("[" NUM "]")? ("=" NUM ("," NUM)*)? ";"
func (p *parser) globalDecl() (*GlobalDecl, error) {
	kw, _ := p.expect(kwGlobal)
	id, err := p.expect(ident)
	if err != nil {
		return nil, err
	}
	g := &GlobalDecl{Name: id.Text, Size: 1, Line: kw.Line}
	if p.accept(lBrack) {
		n, err := p.expect(num)
		if err != nil {
			return nil, err
		}
		if n.Num <= 0 {
			return nil, fmt.Errorf("line %d: array size must be positive", n.Line)
		}
		g.Size = int(n.Num)
		if _, err := p.expect(rBrack); err != nil {
			return nil, err
		}
	}
	if p.accept(assign) {
		for {
			neg := p.accept(Minus)
			n, err := p.expect(num)
			if err != nil {
				return nil, err
			}
			v := n.Num
			if neg {
				v = -v
			}
			g.Init = append(g.Init, v)
			if !p.accept(comma) {
				break
			}
		}
		if len(g.Init) > g.Size {
			return nil, fmt.Errorf("line %d: %d initializers for global of size %d", kw.Line, len(g.Init), g.Size)
		}
	}
	if _, err := p.expect(semi); err != nil {
		return nil, err
	}
	return g, nil
}

// funcDecl := "func" IDENT "(" (IDENT ("," IDENT)*)? ")" block
func (p *parser) funcDecl() (*FuncDecl, error) {
	kw, _ := p.expect(kwFunc)
	id, err := p.expect(ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lParen); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: id.Text, Line: kw.Line}
	if !p.at(rParen) {
		for {
			param, err := p.expect(ident)
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, param.Text)
			if !p.accept(comma) {
				break
			}
		}
	}
	if _, err := p.expect(rParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*BlockStmt, error) {
	lb, err := p.expect(lBrace)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Line: lb.Line}
	for !p.at(rBrace) {
		if p.at(eof) {
			return nil, fmt.Errorf("line %d: unterminated block", lb.Line)
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // RBrace
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.peek()
	switch t.Kind {
	case kwVar:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(semi)
		return s, err
	case kwIf:
		return p.ifStmt()
	case kwWhile:
		p.next()
		if _, err := p.expect(lParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(rParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
	case kwFor:
		return p.forStmt()
	case kwSwitch:
		return p.switchStmt()
	case kwReturn:
		p.next()
		var val Expr
		if !p.at(semi) {
			var err error
			val, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(semi); err != nil {
			return nil, err
		}
		return &ReturnStmt{Val: val, Line: t.Line}, nil
	case kwBreak:
		p.next()
		if _, err := p.expect(semi); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.Line}, nil
	case kwContinue:
		p.next()
		if _, err := p.expect(semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line}, nil
	case lBrace:
		return p.block()
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(semi)
		return s, err
	}
}

// simpleStmt handles var decls, assignments, stores and expression
// statements — the statement forms allowed in for-headers.
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.peek()
	switch t.Kind {
	case kwVar:
		p.next()
		id, err := p.expect(ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(assign); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &VarStmt{Name: id.Text, Init: init, Line: t.Line}, nil
	case ident:
		// Lookahead: IDENT "=" → assign; IDENT "[" → index store or
		// (after ]) read; IDENT "(" → call statement; otherwise expr stmt.
		if p.toks[p.pos+1].Kind == assign {
			id := p.next()
			p.next() // '='
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{Name: id.Text, Val: val, Line: t.Line}, nil
		}
		if p.toks[p.pos+1].Kind == lBrack {
			// Could be a store `g[i] = e` — parse index then check '='.
			save := p.pos
			id := p.next()
			p.next() // '['
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(rBrack); err != nil {
				return nil, err
			}
			if p.accept(assign) {
				val, err := p.expr()
				if err != nil {
					return nil, err
				}
				return &StoreStmt{Global: id.Text, Index: idx, Val: val, Line: t.Line}, nil
			}
			// Not a store; re-parse as expression statement.
			p.pos = save
		}
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{X: x, Line: t.Line}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	t, _ := p.expect(kwIf)
	if _, err := p.expect(lParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(rParen); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then, Line: t.Line}
	if p.accept(kwElse) {
		if p.at(kwIf) {
			s.Else, err = p.ifStmt()
		} else {
			s.Else, err = p.block()
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) forStmt() (Stmt, error) {
	t, _ := p.expect(kwFor)
	if _, err := p.expect(lParen); err != nil {
		return nil, err
	}
	s := &ForStmt{Line: t.Line}
	var err error
	if !p.at(semi) {
		s.Init, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(semi); err != nil {
		return nil, err
	}
	if !p.at(semi) {
		s.Cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(semi); err != nil {
		return nil, err
	}
	if !p.at(rParen) {
		s.Post, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(rParen); err != nil {
		return nil, err
	}
	s.Body, err = p.block()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) switchStmt() (Stmt, error) {
	t, _ := p.expect(kwSwitch)
	if _, err := p.expect(lParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(rParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(lBrace); err != nil {
		return nil, err
	}
	s := &SwitchStmt{Cond: cond, Line: t.Line}
	seen := map[int64]bool{}
	for !p.at(rBrace) {
		switch {
		case p.accept(kwCase):
			neg := p.accept(Minus)
			n, err := p.expect(num)
			if err != nil {
				return nil, err
			}
			v := n.Num
			if neg {
				v = -v
			}
			if seen[v] {
				return nil, fmt.Errorf("line %d: duplicate case %d", n.Line, v)
			}
			seen[v] = true
			if _, err := p.expect(colon); err != nil {
				return nil, err
			}
			body, err := p.caseBody(n.Line)
			if err != nil {
				return nil, err
			}
			s.Values = append(s.Values, v)
			s.Bodies = append(s.Bodies, body)
		case p.accept(kwDefault):
			if s.Default != nil {
				return nil, fmt.Errorf("line %d: duplicate default", p.peek().Line)
			}
			if _, err := p.expect(colon); err != nil {
				return nil, err
			}
			body, err := p.caseBody(t.Line)
			if err != nil {
				return nil, err
			}
			s.Default = body
		default:
			return nil, fmt.Errorf("line %d: expected 'case' or 'default' in switch", p.peek().Line)
		}
	}
	p.next() // RBrace
	return s, nil
}

// caseBody parses statements until the next case/default/closing brace.
// MiniLang cases do not fall through.
func (p *parser) caseBody(line int) (*BlockStmt, error) {
	b := &BlockStmt{Line: line}
	for !p.at(kwCase) && !p.at(kwDefault) && !p.at(rBrace) {
		if p.at(eof) {
			return nil, fmt.Errorf("line %d: unterminated switch", line)
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

// Operator precedence (lowest first): || , &&, comparisons, +/-, */ /%.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(OrOr) {
		t := p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OrOr, L: l, R: r, Line: t.Line}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.at(AndAnd) {
		t := p.next()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: AndAnd, L: l, R: r, Line: t.Line}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().Kind
		if k != Eq && k != Ne && k != Lt && k != Le && k != Gt && k != Ge {
			return l, nil
		}
		t := p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: k, L: l, R: r, Line: t.Line}
	}
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(Plus) || p.at(Minus) {
		t := p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Kind, L: l, R: r, Line: t.Line}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(Star) || p.at(Slash) || p.at(Percent) {
		t := p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Kind, L: l, R: r, Line: t.Line}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.peek()
	if t.Kind == Minus || t.Kind == Not {
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: t.Kind, X: x, Line: t.Line}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case amp:
		p.next()
		id, err := p.expect(ident)
		if err != nil {
			return nil, err
		}
		return &FuncRefExpr{Name: id.Text, Line: t.Line}, nil
	case kwICall:
		p.next()
		if _, err := p.expect(lParen); err != nil {
			return nil, err
		}
		target, err := p.expr()
		if err != nil {
			return nil, err
		}
		call := &IndirectCallExpr{Target: target, Line: t.Line}
		for p.accept(comma) {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		if _, err := p.expect(rParen); err != nil {
			return nil, err
		}
		return call, nil
	case num:
		p.next()
		return &NumExpr{Val: t.Num, Line: t.Line}, nil
	case ident:
		p.next()
		switch p.peek().Kind {
		case lParen:
			p.next()
			call := &CallExpr{Callee: t.Text, Line: t.Line}
			if !p.at(rParen) {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(comma) {
						break
					}
				}
			}
			if _, err := p.expect(rParen); err != nil {
				return nil, err
			}
			return call, nil
		case lBrack:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(rBrack); err != nil {
				return nil, err
			}
			return &IndexExpr{Global: t.Text, Index: idx, Line: t.Line}, nil
		}
		return &VarExpr{Name: t.Text, Line: t.Line}, nil
	case lParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(rParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, fmt.Errorf("line %d: unexpected %s in expression", t.Line, t)
}
