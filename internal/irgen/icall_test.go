package irgen

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/source"
)

func TestLowerFuncRefAndICall(t *testing.T) {
	p := lower(t, "m", `
func main(a) {
	var h = &helper;
	return icall(h, a, a + 1);
}
func helper(x, y) { return x * y; }
`)
	f := p.Funcs["main"]
	var refs, icalls int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpFuncRef:
				refs++
				if b.Instrs[i].Sym() != "helper" {
					t.Fatalf("funcref target = %q", b.Instrs[i].Sym())
				}
			case ir.OpICall:
				icalls++
				if len(b.Instrs[i].Args()) != 2 {
					t.Fatalf("icall args = %d", len(b.Instrs[i].Args()))
				}
				if b.Instrs[i].A == ir.NoReg {
					t.Fatal("icall without target register")
				}
			}
		}
	}
	if refs != 1 || icalls != 1 {
		t.Fatalf("refs=%d icalls=%d", refs, icalls)
	}
}

func TestLowerFuncRefToUndefinedFails(t *testing.T) {
	f, err := source.Parse("m", "func main() { var h = &nothere; return icall(h); }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(f); err == nil {
		t.Fatal("funcref to undefined function should fail program verify")
	}
}

func TestICallSemanticsThroughVerify(t *testing.T) {
	p := lower(t, "m", `
global table[3];
func main(sel) {
	var h = &zero;
	if (sel == 1) { h = &one; }
	if (sel == 2) { h = &two; }
	return icall(h, sel);
}
func zero(x) { return 0; }
func one(x) { return x; }
func two(x) { return x * 2; }
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// All three handlers must be referenced by funcrefs.
	seen := map[string]bool{}
	for _, b := range p.Funcs["main"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpFuncRef {
				seen[b.Instrs[i].Sym()] = true
			}
		}
	}
	for _, want := range []string{"zero", "one", "two"} {
		if !seen[want] {
			t.Fatalf("missing funcref to %s", want)
		}
	}
}
