package probe

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
)

func lower(t testing.TB, src string) *ir.Program {
	t.Helper()
	f, err := source.Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const src = `
func main(a) {
	var r = 0;
	if (a > 0) { r = helper(a); } else { r = helper(0 - a); }
	return r;
}
func helper(x) { return x + 1; }
`

func TestInsertAssignsSequentialIDs(t *testing.T) {
	p := lower(t, src)
	InsertProgram(p)
	f := p.Funcs["main"]
	if f.NumProbes == 0 {
		t.Fatal("no probes inserted")
	}
	if err := verify(f); err != nil {
		t.Fatal(err)
	}
	if err := verify(p.Funcs["helper"]); err != nil {
		t.Fatal(err)
	}
	// 4 blocks (entry/then/else/join) + 2 calls = 6 probes.
	if f.NumProbes != 6 {
		t.Fatalf("main NumProbes = %d, want 6:\n%s", f.NumProbes, f)
	}
	if f.Checksum == 0 {
		t.Fatal("checksum not recorded")
	}
}

func TestInsertIsDeterministic(t *testing.T) {
	p1 := lower(t, src)
	p2 := lower(t, src)
	InsertProgram(p1)
	InsertProgram(p2)
	f1, f2 := p1.Funcs["main"], p2.Funcs["main"]
	if f1.Checksum != f2.Checksum || f1.NumProbes != f2.NumProbes {
		t.Fatal("probe insertion must be deterministic across compilations")
	}
	for i := range f1.Blocks {
		p1b, p2b := blockProbe(f1.Blocks[i]), blockProbe(f2.Blocks[i])
		if p1b.ID != p2b.ID {
			t.Fatalf("block %d probe ids differ: %d vs %d", i, p1b.ID, p2b.ID)
		}
	}
}

func TestCommentShiftKeepsProbesStable(t *testing.T) {
	// Adding a comment shifts every debug line but must leave probe IDs and
	// the CFG checksum untouched — the paper's source-drift resilience.
	p1 := lower(t, src)
	p2 := lower(t, "// leading comment\n// another\n"+src)
	InsertProgram(p1)
	InsertProgram(p2)
	f1, f2 := p1.Funcs["main"], p2.Funcs["main"]
	if f1.Checksum != f2.Checksum {
		t.Fatal("comment-only drift must not change CFG checksum")
	}
	// But debug lines did shift.
	var l1, l2 int32
	for i := range f1.Entry().Instrs {
		if loc := f1.Entry().Instrs[i].Loc; loc != nil {
			l1 = loc.Line
			break
		}
	}
	for i := range f2.Entry().Instrs {
		if loc := f2.Entry().Instrs[i].Loc; loc != nil {
			l2 = loc.Line
			break
		}
	}
	if l1 == l2 {
		t.Fatalf("expected line drift, both at %d", l1)
	}
}

func TestCFGChangeChangesChecksum(t *testing.T) {
	p1 := lower(t, src)
	p2 := lower(t, `
func main(a) {
	var r = 0;
	if (a > 0) { r = helper(a); } else { r = helper(0 - a); }
	if (r > 100) { r = 100; }
	return r;
}
func helper(x) { return x + 1; }
`)
	InsertProgram(p1)
	InsertProgram(p2)
	if p1.Funcs["main"].Checksum == p2.Funcs["main"].Checksum {
		t.Fatal("CFG change must perturb checksum")
	}
}

func TestInsertIdempotent(t *testing.T) {
	p := lower(t, src)
	InsertProgram(p)
	n := p.Funcs["main"].NumProbes
	InsertProgram(p)
	if p.Funcs["main"].NumProbes != n {
		t.Fatal("re-insertion must be a no-op")
	}
	if err := verify(p.Funcs["main"]); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndex(t *testing.T) {
	p := lower(t, src)
	InsertProgram(p)
	f := p.Funcs["main"]
	idx := BuildIndex(f)
	if len(idx.Blocks) != len(f.Blocks) {
		t.Fatalf("index blocks = %d, want %d", len(idx.Blocks), len(f.Blocks))
	}
	if len(idx.Calls) != 2 {
		t.Fatalf("index calls = %d, want 2", len(idx.Calls))
	}
	for id, bs := range idx.Blocks {
		if len(bs) != 1 {
			t.Fatalf("probe %d maps to %d blocks before any duplication", id, len(bs))
		}
	}
}

func TestVerifyCatchesMissingBlockProbe(t *testing.T) {
	p := lower(t, src)
	InsertProgram(p)
	f := p.Funcs["main"]
	f.Blocks[1].Instrs = f.Blocks[1].Instrs[1:] // drop leading probe
	if err := verify(f); err == nil {
		t.Fatal("verify should notice the dropped block probe")
	}
}

func TestVerifyRejectsDuplicateProbeIDs(t *testing.T) {
	p := lower(t, src)
	InsertProgram(p)
	f := p.Funcs["main"]
	// Give the second block's probe the first block's ID — the shape a buggy
	// duplication pass would produce.
	blockProbe(f.Blocks[1]).ID = blockProbe(f.Blocks[0]).ID
	err := verify(f)
	if err == nil || !strings.Contains(err.Error(), "duplicate probe id") {
		t.Fatalf("want duplicate-probe error, got %v", err)
	}
}

func TestVerifyAllowsRepeatedInlinedIDs(t *testing.T) {
	p := lower(t, src)
	InsertProgram(p)
	f := p.Funcs["main"]
	// An inlined copy of another function's probe may repeat IDs already
	// used by the host: only the host's own ID space must stay unique.
	bp := blockProbe(f.Blocks[1])
	bp.Func = "helper"
	bp.ID = blockProbe(f.Blocks[0]).ID
	bp.InlinedAt = &ir.ProbeSite{Func: "main", CallID: 2}
	if err := verify(f); err != nil {
		t.Fatalf("inlined probe with repeated id rejected: %v", err)
	}
}

// verify checks probe invariants after insertion: every block has exactly
// one block probe at its head, every call carries a call probe, and IDs are
// unique within the function.
func verify(f *ir.Function) error {
	seen := map[int32]bool{}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 || b.Instrs[0].Op != ir.OpProbe {
			return fmt.Errorf("%s b%d: missing leading block probe", f.Name, b.ID)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpProbe && i > 0 {
				return fmt.Errorf("%s b%d: stray probe at position %d", f.Name, b.ID, i)
			}
			var p *ir.Probe
			switch {
			case in.Op == ir.OpProbe:
				p = in.Probe
			case in.Op == ir.OpCall, in.Op == ir.OpICall:
				if in.Probe == nil {
					return fmt.Errorf("%s b%d: call without call probe", f.Name, b.ID)
				}
				p = in.Probe
			default:
				continue
			}
			if p.InlinedAt != nil || p.Func != f.Name {
				continue // inlined probes may repeat IDs of their origin
			}
			if seen[p.ID] {
				return fmt.Errorf("%s: duplicate probe id %d", f.Name, p.ID)
			}
			seen[p.ID] = true
		}
	}
	return nil
}

// TestAppendInlineContext renders inline chains of depth 0 to 3 onto an
// existing context, outermost call site first.
func TestAppendInlineContext(t *testing.T) {
	root := profdata.Context{{Func: "caller", Site: profdata.LocKey{ID: 9}}}
	main7 := &ir.ProbeSite{Func: "main", CallID: 7}
	mid2 := &ir.ProbeSite{Func: "mid", CallID: 2, Parent: main7}
	inner4 := &ir.ProbeSite{Func: "inner", CallID: 4, Parent: mid2}
	for depth, c := range []struct {
		site *ir.ProbeSite
		want string
	}{
		{nil, "caller:9"},
		{main7, "caller:9 @ main:7"},
		{mid2, "caller:9 @ main:7 @ mid:2"},
		{inner4, "caller:9 @ main:7 @ mid:2 @ inner:4"},
	} {
		got := AppendInlineContext(slices.Clone(root), c.site)
		// Key renders the last frame without its site; add a leaf.
		got = append(got, profdata.ContextFrame{Func: "leaf"})
		if key := got.Key(); key != c.want+" @ leaf" {
			t.Errorf("chain %v: got %q, want %q", c.site, key, c.want+" @ leaf")
		}
		if len(got) != len(root)+depth+1 {
			t.Errorf("chain %v: %d frames", c.site, len(got))
		}
	}
	if got := AppendInlineContext(nil, nil); got != nil {
		t.Errorf("nil chain onto nil context = %v, want nil", got)
	}
}

// blockProbe returns the block probe heading b, or nil if b has none (e.g.
// probes were never inserted).
func blockProbe(b *ir.Block) *ir.Probe {
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpProbe {
			return b.Instrs[i].Probe
		}
	}
	return nil
}
