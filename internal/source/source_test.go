package source

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("func f(a) { return a + 42; } // tail comment")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{kwFunc, ident, lParen, ident, rParen, lBrace, kwReturn, ident, Plus, num, semi, rBrace, eof}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[9].Num != 42 {
		t.Fatalf("number literal = %d", toks[9].Num)
	}
}

func TestLexLineTracking(t *testing.T) {
	src := "func f()\n{\n  return 1;\n}\n"
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 {
		t.Fatalf("func at line %d", toks[0].Line)
	}
	// kwReturn is the 5th token (func, f, (, ), {, return).
	if toks[5].Kind != kwReturn || toks[5].Line != 3 {
		t.Fatalf("return token at line %d (tok %v)", toks[5].Line, toks[5])
	}
}

func TestLexCommentsShiftLines(t *testing.T) {
	// The same code with a comment line above must report shifted lines —
	// this is the "source drift" mechanism the paper discusses.
	base, _ := lex("func f() { return 1; }")
	shifted, _ := lex("// a comment\nfunc f() { return 1; }")
	if base[0].Line != 1 || shifted[0].Line != 2 {
		t.Fatalf("comment must shift lines: %d vs %d", base[0].Line, shifted[0].Line)
	}
}

func TestLexBlockComment(t *testing.T) {
	toks, err := lex("/* multi\nline */ func f() { }")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != kwFunc || toks[0].Line != 2 {
		t.Fatalf("block comment handling wrong: %v", toks[0])
	}
	if _, err := lex("/* unterminated"); err == nil {
		t.Fatal("unterminated block comment must error")
	}
}

func TestLexTwoCharOps(t *testing.T) {
	toks, err := lex("== != <= >= && || < > = !")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Eq, Ne, Le, Ge, AndAnd, OrOr, Lt, Gt, assign, Not, eof}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"|", "$", "#"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("Lex(%q) should fail", bad)
		}
	}
}

func TestLexAmpAndICall(t *testing.T) {
	toks, err := lex("icall(&handler, 3)")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{kwICall, lParen, amp, ident, comma, num, rParen, eof}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestParseIndirectCall(t *testing.T) {
	f, err := Parse("p", `
func main(a) {
	var h = &handler;
	return icall(h, a, 5);
}
func handler(x, y) { return x + y; }
`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := f.Funcs[0].Body.Stmts
	v := stmts[0].(*VarStmt)
	if _, ok := v.Init.(*FuncRefExpr); !ok {
		t.Fatalf("var init should be &handler, got %T", v.Init)
	}
	ret := stmts[1].(*ReturnStmt)
	ic, ok := ret.Val.(*IndirectCallExpr)
	if !ok {
		t.Fatalf("return should be icall, got %T", ret.Val)
	}
	if len(ic.Args) != 2 {
		t.Fatalf("icall args = %d", len(ic.Args))
	}
	if _, err := Parse("p", "func f() { return icall(; }"); err == nil {
		t.Fatal("malformed icall should fail")
	}
	if _, err := Parse("p", "func f() { return &7; }"); err == nil {
		t.Fatal("& of non-identifier should fail")
	}
}

const demoSrc = `
global counter;
global table[4] = 1, 2, 3, 4;

func main(arg) {
	var total = 0;
	for (var i = 0; i < arg; i = i + 1) {
		total = total + work(i, arg);
	}
	counter = counter + 1;
	return total;
}

func work(i, n) {
	if (i % 2 == 0 && n > 10) {
		return table[i % 4];
	} else {
		if (i > n) { return 0; }
	}
	var acc = 0;
	while (i > 0) {
		acc = acc + i;
		i = i - 1;
	}
	switch (acc % 3) {
	case 0:
		acc = acc + 1;
	case 1:
		break;
	default:
		acc = acc * 2;
	}
	return acc;
}
`

func TestParseDemo(t *testing.T) {
	f, err := Parse("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 2 || len(f.Funcs) != 2 {
		t.Fatalf("globals=%d funcs=%d", len(f.Globals), len(f.Funcs))
	}
	if f.Globals[1].Size != 4 || len(f.Globals[1].Init) != 4 {
		t.Fatalf("array global parsed wrong: %+v", f.Globals[1])
	}
	mainFn := f.Funcs[0]
	if mainFn.Name != "main" || len(mainFn.Params) != 1 {
		t.Fatalf("main decl: %+v", mainFn)
	}
	// main body: var, for, store(counter), return
	if len(mainFn.Body.Stmts) != 4 {
		t.Fatalf("main stmt count = %d", len(mainFn.Body.Stmts))
	}
	if _, ok := mainFn.Body.Stmts[1].(*ForStmt); !ok {
		t.Fatalf("stmt 1 should be for, got %T", mainFn.Body.Stmts[1])
	}
	work := f.Funcs[1]
	var foundSwitch *SwitchStmt
	for _, s := range work.Body.Stmts {
		if sw, ok := s.(*SwitchStmt); ok {
			foundSwitch = sw
		}
	}
	if foundSwitch == nil {
		t.Fatal("switch not parsed")
	}
	if len(foundSwitch.Values) != 2 || foundSwitch.Default == nil {
		t.Fatalf("switch cases=%v default=%v", foundSwitch.Values, foundSwitch.Default)
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse("p", "func f(a,b,c) { return a + b * c == a && b < c || !a; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	or, ok := ret.Val.(*BinExpr)
	if !ok || or.Op != OrOr {
		t.Fatalf("top must be ||, got %#v", ret.Val)
	}
	and, ok := or.L.(*BinExpr)
	if !ok || and.Op != AndAnd {
		t.Fatalf("|| left must be &&, got %#v", or.L)
	}
	eq, ok := and.L.(*BinExpr)
	if !ok || eq.Op != Eq {
		t.Fatalf("&& left must be ==, got %#v", and.L)
	}
	add, ok := eq.L.(*BinExpr)
	if !ok || add.Op != Plus {
		t.Fatalf("== left must be +, got %#v", eq.L)
	}
	if mul, ok := add.R.(*BinExpr); !ok || mul.Op != Star {
		t.Fatalf("+ right must be *, got %#v", add.R)
	}
	if not, ok := or.R.(*UnExpr); !ok || not.Op != Not {
		t.Fatalf("|| right must be !, got %#v", or.R)
	}
}

func TestParseIfElseChain(t *testing.T) {
	f, err := Parse("p", `func f(a) { if (a > 2) { return 2; } else if (a > 1) { return 1; } else { return 0; } }`)
	if err != nil {
		t.Fatal(err)
	}
	ifs := f.Funcs[0].Body.Stmts[0].(*IfStmt)
	elif, ok := ifs.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else-if should nest IfStmt, got %T", ifs.Else)
	}
	if _, ok := elif.Else.(*BlockStmt); !ok {
		t.Fatalf("final else should be a block, got %T", elif.Else)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing paren":    "func f( { }",
		"bad toplevel":     "return 1;",
		"dup case":         "func f(a) { switch (a) { case 1: case 1: } }",
		"dup default":      "func f(a) { switch (a) { default: default: } }",
		"unterminated":     "func f() {",
		"array size":       "global g[0];",
		"too many inits":   "global g[2] = 1,2,3;",
		"missing semi":     "func f() { return 1 }",
		"stray expression": "func f() { 1 + ; }",
	}
	for name, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, src)
		}
	}
}

func TestParseNegativeLiterals(t *testing.T) {
	f, err := Parse("p", "global g = -5;\nfunc f() { switch (g) { case -5: return 1; } return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if f.Globals[0].Init[0] != -5 {
		t.Fatalf("negative global init = %d", f.Globals[0].Init[0])
	}
	sw := f.Funcs[0].Body.Stmts[0].(*SwitchStmt)
	if sw.Values[0] != -5 {
		t.Fatalf("negative case = %d", sw.Values[0])
	}
}

func TestParseLinesSurviveRoundTrip(t *testing.T) {
	f, err := Parse("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The `counter = counter + 1;` store sits on line 10 of demoSrc.
	store := f.Funcs[0].Body.Stmts[2]
	if _, ok := store.(*AssignStmt); !ok {
		t.Fatalf("stmt 2 should be assign-to-global(scalar), got %T", store)
	}
	wantLine := 1 + strings.Index(demoSrc, "counter = counter")
	_ = wantLine // count lines instead:
	n := 1
	for _, c := range demoSrc[:strings.Index(demoSrc, "counter = counter")] {
		if c == '\n' {
			n++
		}
	}
	if store.Pos() != n {
		t.Fatalf("store line = %d, want %d", store.Pos(), n)
	}
}

func TestForHeaderVariants(t *testing.T) {
	srcs := []string{
		"func f() { for (;;) { break; } return 0; }",
		"func f() { for (var i = 0; i < 3; i = i + 1) { continue; } return 0; }",
		"func f(n) { for (; n > 0;) { n = n - 1; } return n; }",
	}
	for _, src := range srcs {
		if _, err := Parse("t", src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
