package irgen

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/source"
)

func lower(t testing.TB, module, src string) *ir.Program {
	t.Helper()
	f, err := source.Parse(module, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func TestLowerSimpleReturn(t *testing.T) {
	p := lower(t, "m", "func main(a) { return a + 1; }")
	f := p.Funcs["main"]
	if f.Module != "m" {
		t.Fatalf("module = %q", f.Module)
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("straight-line function should have 1 block, got %d", len(f.Blocks))
	}
	term := f.Blocks[0].Term
	if term.Kind != ir.TermReturn || term.Val == ir.NoReg {
		t.Fatalf("bad terminator %v", term)
	}
}

func TestLowerIfElseShape(t *testing.T) {
	p := lower(t, "m", `func main(a) { var r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }`)
	f := p.Funcs["main"]
	// entry(branch), then, else, join.
	if len(f.Blocks) != 4 {
		t.Fatalf("if/else should make 4 blocks, got %d:\n%s", len(f.Blocks), f)
	}
	if f.Entry().Term.Kind != ir.TermBranch {
		t.Fatalf("entry should branch, got %v", f.Entry().Term.Kind)
	}
}

func TestLowerWhileLoopShape(t *testing.T) {
	p := lower(t, "m", `func main(n) { var i = 0; while (i < n) { i = i + 1; } return i; }`)
	f := p.Funcs["main"]
	loops, _ := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("want 1 natural loop, got %d:\n%s", len(loops), f)
	}
}

func TestLowerForLoopShape(t *testing.T) {
	p := lower(t, "m", `func main(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }`)
	f := p.Funcs["main"]
	if loops, _ := f.NaturalLoops(); len(loops) != 1 {
		t.Fatalf("for loop should form one natural loop:\n%s", f)
	}
}

func TestLowerSwitch(t *testing.T) {
	p := lower(t, "m", `func main(a) { var r = 0; switch (a) { case 1: r = 10; case 2: r = 20; default: r = 30; } return r; }`)
	f := p.Funcs["main"]
	var sw *ir.Terminator
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermSwitch {
			sw = &b.Term
		}
	}
	if sw == nil {
		t.Fatalf("no switch terminator:\n%s", f)
	}
	if len(sw.Cases) != 2 || len(sw.Succs) != 3 {
		t.Fatalf("switch arity: cases=%d succs=%d", len(sw.Cases), len(sw.Succs))
	}
}

func TestLowerShortCircuitCreatesControlFlow(t *testing.T) {
	p := lower(t, "m", `func main(a, b) { if (a > 0 && b > 0) { return 1; } return 0; }`)
	f := p.Funcs["main"]
	branches := 0
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBranch {
			branches++
		}
	}
	// One branch for &&'s L, one for the if itself.
	if branches < 2 {
		t.Fatalf("short-circuit should produce >=2 branches, got %d:\n%s", branches, f)
	}
}

func TestLowerGlobalsAndArrays(t *testing.T) {
	p := lower(t, "m", `
global g;
global tab[3] = 7, 8, 9;
func main(i) { g = g + 1; tab[i] = g; return tab[i] + g; }`)
	if p.Globals["tab"].Init[2] != 9 {
		t.Fatalf("array init: %v", p.Globals["tab"].Init)
	}
	f := p.Funcs["main"]
	var loads, stores int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpLoadG:
				loads++
			case ir.OpStoreG:
				stores++
			}
		}
	}
	if loads < 3 || stores != 2 {
		t.Fatalf("loads=%d stores=%d:\n%s", loads, stores, f)
	}
}

func TestLowerBreakContinue(t *testing.T) {
	p := lower(t, "m", `func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i == 3) { continue; }
		if (i == 7) { break; }
		s = s + i;
	}
	return s;
}`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLowerDebugLocations(t *testing.T) {
	src := "func main(a) {\n\tvar x = a + 1;\n\treturn x;\n}"
	p := lower(t, "m", src)
	f := p.Funcs["main"]
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if loc := b.Instrs[i].Loc; loc != nil {
				if loc.Func != "main" {
					t.Fatalf("loc func = %q", loc.Func)
				}
				if loc.Line == 2 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no instruction carries line 2:\n%s", f)
	}
}

func TestLowerCallsResolveAcrossModules(t *testing.T) {
	f1, err := source.Parse("mod1", "func main(a) { return helper(a) + 1; }")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := source.Parse("mod2", "func helper(x) { return x * 2; }")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Funcs["helper"].Module != "mod2" {
		t.Fatalf("helper module = %q", p.Funcs["helper"].Module)
	}
}

func TestLowerErrors(t *testing.T) {
	cases := map[string]string{
		"undeclared var":      "func main() { return nope; }",
		"undeclared assign":   "func main() { x = 1; return 0; }",
		"undefined callee":    "func main() { return missing(1); }",
		"array as scalar":     "global a[2];\nfunc main() { return a; }",
		"scalar indexed":      "global s;\nfunc main() { return s[0]; }",
		"array store noindex": "global a[2];\nfunc main() { a = 3; return 0; }",
		"dup function":        "func f() { return 0; }\nfunc f() { return 1; }\nfunc main() { return 0; }",
		"dup param":           "func main(a, a) { return a; }",
		"break outside loop":  "func main() { break; return 0; }",
		"continue outside":    "func main() { continue; return 0; }",
	}
	for name, src := range cases {
		f, err := source.Parse("t", src)
		if err != nil {
			t.Fatalf("%s: parse failed unexpectedly: %v", name, err)
		}
		if _, err := Lower(f); err == nil {
			t.Errorf("%s: Lower should fail for %q", name, src)
		}
	}
}

func TestLowerDeadCodeAfterReturn(t *testing.T) {
	p := lower(t, "m", "func main(a) { return a; a = a + 1; return a; }")
	// Unreachable blocks must have been dropped; program still verifies.
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLowerScoping(t *testing.T) {
	// Inner block's x shadows outer; after the block, outer x is visible.
	p := lower(t, "m", `func main(a) {
	var x = 1;
	if (a > 0) {
		var x = 2;
		x = x + 1;
	}
	return x;
}`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}
