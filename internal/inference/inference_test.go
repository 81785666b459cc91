package inference

import (
	"fmt"
	"math/rand"
	"testing"

	"csspgo/internal/ir"
)

// infer runs one function's inference in a workspace of its own.
func infer(f *ir.Function) result {
	var w Workspace
	return w.infer(f)
}

// diamond builds entry→{left,right}→join→ret with given measured weights
// (use ^uint64(0) to leave a block unmeasured).
func diamond(t testing.TB, wEntry, wLeft, wRight, wJoin uint64) *ir.Function {
	t.Helper()
	f := ir.NewFunction("d", []string{"a"})
	b0 := f.Entry()
	b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	cond := f.NewReg()
	b0.Instrs = append(b0.Instrs, ir.Instr{Op: ir.OpBin, BinKind: ir.BinGt, Dst: cond, A: 0, B: 0})
	b0.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{b1, b2}}
	b1.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{b3}}
	b2.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{b3}}
	b3.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	set := func(b *ir.Block, w uint64) {
		if w != ^uint64(0) {
			b.Weight = w
			b.HasWeight = true
		}
	}
	set(b0, wEntry)
	set(b1, wLeft)
	set(b2, wRight)
	set(b3, wJoin)
	f.RebuildCFG()
	return f
}

func TestInferConsistentInputUnchanged(t *testing.T) {
	f := diamond(t, 100, 70, 30, 100)
	infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("consistency violations: %d\n%s", v, f)
	}
	if f.Blocks[0].Weight != 100 || f.Blocks[1].Weight != 70 || f.Blocks[2].Weight != 30 {
		t.Fatalf("consistent weights should be preserved: %s", f)
	}
	if f.Blocks[0].Term.EdgeW[0] != 70 || f.Blocks[0].Term.EdgeW[1] != 30 {
		t.Fatalf("edge weights: %v", f.Blocks[0].Term.EdgeW)
	}
}

func TestInferRepairsInconsistentCounts(t *testing.T) {
	// Arms sum to 90, join says 100, entry says 100: sampling noise.
	f := diamond(t, 100, 60, 30, 100)
	res := infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("violations: %d\n%s", v, f)
	}
	if res.Adjusted == 0 {
		t.Fatal("inference should have adjusted something")
	}
	// Arms must now sum to the entry/join flow.
	sum := f.Blocks[1].Weight + f.Blocks[2].Weight
	if sum != f.Blocks[0].Weight || sum != f.Blocks[3].Weight {
		t.Fatalf("arms %d+%d must equal entry %d and join %d",
			f.Blocks[1].Weight, f.Blocks[2].Weight, f.Blocks[0].Weight, f.Blocks[3].Weight)
	}
}

func TestInferFillsUnknownBlocks(t *testing.T) {
	f := diamond(t, 100, ^uint64(0), 30, 100)
	infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("violations: %d\n%s", v, f)
	}
	if f.Blocks[1].Weight != 70 {
		t.Fatalf("unknown arm should get residual flow 70, got %d", f.Blocks[1].Weight)
	}
}

func TestInferLoop(t *testing.T) {
	// entry(10) → head(1000) ⇄ body(990) ; head → exit(10)
	f := ir.NewFunction("loop", []string{"n"})
	b0 := f.Entry()
	head, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock()
	cond := f.NewReg()
	b0.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{head}}
	head.Instrs = append(head.Instrs, ir.Instr{Op: ir.OpBin, BinKind: ir.BinLt, Dst: cond, A: 0, B: 0})
	head.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{body, exit}}
	body.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{head}}
	exit.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
	for b, w := range map[*ir.Block]uint64{b0: 10, head: 1000, body: 985, exit: 10} {
		b.Weight = w
		b.HasWeight = true
	}
	f.RebuildCFG()
	infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("violations: %d\n%s", v, f)
	}
	if f.Blocks[1].Weight < 900 {
		t.Fatalf("loop head flow collapsed: %s", f)
	}
	// head = entry inflow + backedge.
	if f.Blocks[0].Weight+bodyW(f) != f.Blocks[1].Weight {
		t.Fatalf("loop conservation broken: %s", f)
	}
}

func bodyW(f *ir.Function) uint64 { return f.Blocks[2].Weight }

func TestInferZeroSampledColdPath(t *testing.T) {
	// Right arm sampled zero: flow should route left.
	f := diamond(t, 100, ^uint64(0), 0, 100)
	infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("violations: %d", v)
	}
	if f.Blocks[2].Weight != 0 {
		t.Fatalf("cold arm should stay 0, got %d", f.Blocks[2].Weight)
	}
	if f.Blocks[1].Weight != 100 {
		t.Fatalf("hot arm should carry all flow, got %d", f.Blocks[1].Weight)
	}
}

func TestInferLargeWeightsScale(t *testing.T) {
	f := diamond(t, 10_000_000, 7_000_000, 2_000_000, 10_000_000)
	res := infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("violations: %d", v)
	}
	if res.Augmentations > 5000 {
		t.Fatalf("scaling failed, %d augmentations", res.Augmentations)
	}
	if f.Blocks[0].Weight < 9_000_000 {
		t.Fatalf("scaled weights lost magnitude: %d", f.Blocks[0].Weight)
	}
}

func TestInferRandomCFGsAlwaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		f := randomCFG(rng, 3+rng.Intn(10))
		InferProgram(progOf(f))
		if v := checkConsistency(f); v != 0 {
			t.Fatalf("trial %d: %d violations\n%s", trial, v, f)
		}
	}
}

func progOf(f *ir.Function) *ir.Program {
	p := ir.NewProgram()
	p.AddFunc(f)
	return p
}

// randomCFG builds a random reducible-ish CFG with noisy weights.
func randomCFG(rng *rand.Rand, n int) *ir.Function {
	f := ir.NewFunction("r", []string{"a"})
	blocks := []*ir.Block{f.Entry()}
	for i := 1; i < n; i++ {
		blocks = append(blocks, f.NewBlock())
	}
	cond := f.NewReg()
	blocks[0].Instrs = append(blocks[0].Instrs, ir.Instr{Op: ir.OpBin, BinKind: ir.BinLt, Dst: cond, A: 0, B: 0})
	for i, b := range blocks {
		if i == n-1 {
			b.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
			continue
		}
		// Forward edges; occasionally a back edge to make loops.
		t1 := blocks[i+1]
		if rng.Intn(3) == 0 {
			t2 := blocks[rng.Intn(n)]
			b.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{t1, t2}}
		} else {
			b.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{t1}}
		}
		if rng.Intn(2) == 0 {
			b.Weight = uint64(rng.Intn(1000))
			b.HasWeight = true
		}
	}
	f.RebuildCFG()
	return f
}

func TestCheckConsistencyDetectsViolations(t *testing.T) {
	f := diamond(t, 100, 70, 30, 100)
	infer(f)
	f.Blocks[1].Weight = 999 // corrupt
	if checkConsistency(f) == 0 {
		t.Fatal("checker must notice corruption")
	}
}

// TestInferProgramAllocs: InferProgram solves every function in one
// workspace, so what a call allocates does not grow with the number of
// functions it solves (here 1 and 64 copies of one CFG).
func TestInferProgramAllocs(t *testing.T) {
	allocs := func(copies int) float64 {
		p := ir.NewProgram()
		for i := 0; i < copies; i++ {
			f := randomCFG(rand.New(rand.NewSource(1)), 16)
			f.Name = fmt.Sprintf("r%d", i)
			p.AddFunc(f)
		}
		return testing.AllocsPerRun(5, func() { InferProgram(p) })
	}
	one, many := allocs(1), allocs(64)
	t.Logf("allocations per call: %.0f for 1 function, %.0f for 64", one, many)
	if many > one {
		t.Errorf("InferProgram allocates %.0f times for 64 functions, %.0f for 1", many, one)
	}
}
