package ir

import (
	"slices"
	"testing"
)

// callProg builds: main -> a -> b, main -> b, c <-> d (mutual recursion),
// e -> e (self recursion), main -> c, main -> e.
func callProg(t testing.TB) *Program {
	t.Helper()
	p := NewProgram()
	mk := func(name string, callees ...string) *Function {
		f := NewFunction(name, nil)
		for _, c := range callees {
			f.Entry().Instrs = append(f.Entry().Instrs, Instr{Op: OpCall, Dst: NoReg, Callee: c})
		}
		f.Entry().Term = Terminator{Kind: TermReturn, Val: NoReg}
		p.AddFunc(f)
		return f
	}
	mk("main", "a", "b", "c", "e")
	mk("a", "b")
	mk("b")
	mk("c", "d")
	mk("d", "c")
	mk("e", "e")
	if err := p.Verify(); err != nil {
		t.Fatalf("callProg verify: %v", err)
	}
	return p
}

func TestCallGraphEdges(t *testing.T) {
	cg := BuildCallGraph(callProg(t))
	if !cg.Edges["main"]["a"] || !cg.Edges["a"]["b"] {
		t.Fatal("missing forward edges")
	}
	if !cg.Rev["b"]["a"] || !cg.Rev["b"]["main"] {
		t.Fatal("missing reverse edges")
	}
	if len(cg.Calls["main"]) != 4 {
		t.Fatalf("main should have 4 call sites, got %d", len(cg.Calls["main"]))
	}
}

func TestBottomUpOrder(t *testing.T) {
	cg := BuildCallGraph(callProg(t))
	order := cg.BottomUpOrder()
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["b"] < pos["a"] && pos["a"] < pos["main"]) {
		t.Fatalf("bottom-up order violated: %v", order)
	}
	if !(pos["c"] < pos["main"] && pos["d"] < pos["main"]) {
		t.Fatalf("SCC members must precede callers: %v", order)
	}
	if len(order) != 6 {
		t.Fatalf("order should cover all 6 functions: %v", order)
	}
}

func TestTopDownOrderIsReverse(t *testing.T) {
	cg := BuildCallGraph(callProg(t))
	bu := cg.BottomUpOrder()
	td := cg.TopDownOrder()
	for i := range bu {
		if td[i] != bu[len(bu)-1-i] {
			t.Fatalf("top-down should be reversed bottom-up: %v vs %v", td, bu)
		}
	}
	if td[0] != "main" {
		t.Fatalf("main should come first top-down: %v", td)
	}
}

func TestRecursionDetection(t *testing.T) {
	cg := BuildCallGraph(callProg(t))
	for fn, want := range map[string]bool{
		"main": false, "a": false, "b": false,
		"c": true, "d": true, "e": true,
	} {
		if got := cg.isRecursive(fn); got != want {
			t.Errorf("IsRecursive(%s) = %v, want %v", fn, got, want)
		}
	}
	if !cg.InSameSCC("c", "d") {
		t.Fatal("c and d are mutually recursive")
	}
	if cg.InSameSCC("a", "b") {
		t.Fatal("a and b are not in a cycle")
	}
}

func TestSCCsReverseTopological(t *testing.T) {
	cg := BuildCallGraph(callProg(t))
	sccs := cg.computeSCCs()
	// Find SCC containing main; it must come after the one containing b.
	idxOf := func(name string) int {
		for i, scc := range sccs {
			for _, n := range scc {
				if n == name {
					return i
				}
			}
		}
		return -1
	}
	if !(idxOf("b") < idxOf("main")) {
		t.Fatalf("callee SCC must precede caller SCC: %v", sccs)
	}
	// c/d must share one SCC of size 2.
	i := idxOf("c")
	if i != idxOf("d") || len(sccs[i]) != 2 {
		t.Fatalf("c,d should form one SCC: %v", sccs)
	}
}

// CheckSCCQueries holds InSameSCC and isRecursive, which read the partition
// BuildCallGraph stored, to a scan of a fresh computeSCCs() — what they were before
// the partition was stored — for every pair of names the graph knows,
// callees without a function included. Exported to the corpus test in
// package ir_test.
func CheckSCCQueries(t testing.TB, cg *CallGraph) {
	t.Helper()
	sccs := cg.computeSCCs()
	var names []string
	for _, scc := range sccs {
		names = append(names, scc...)
	}
	names = append(names, "no-such-name")
	for _, a := range names {
		recursive := cg.Edges[a][a]
		for _, b := range names {
			want := false
			for _, scc := range sccs {
				if slices.Contains(scc, a) && slices.Contains(scc, b) {
					want = len(scc) > 1 || a == b && cg.Edges[a][a]
				}
			}
			if got := cg.InSameSCC(a, b); got != want {
				t.Errorf("InSameSCC(%s, %s) = %v, a fresh scan says %v", a, b, got, want)
			}
			recursive = recursive || a != b && want
		}
		if got := cg.isRecursive(a); got != recursive {
			t.Errorf("IsRecursive(%s) = %v, a fresh scan says %v", a, got, recursive)
		}
	}
	flat := cg.BottomUpOrder()
	if len(flat) != len(names)-1 {
		t.Fatalf("BottomUpOrder has %d names, SCCs() %d", len(flat), len(names)-1)
	}
	td := cg.TopDownOrder()
	for i, n := range flat {
		if n != names[i] || td[len(td)-1-i] != n {
			t.Fatalf("orders disagree with SCCs() at %d: bottom-up %v, top-down %v, SCCs %v", i, flat, td, sccs)
		}
	}
}

// sccProg builds a self-loop (s), a 3-cycle (x → y → z → x) entered from
// main, and calls to "ghost", a callee name that has no function.
func sccProg() *Program {
	p := NewProgram()
	for _, fn := range [][]string{
		{"main", "s", "x", "ghost"},
		{"s", "s"},
		{"x", "y"},
		{"y", "z", "ghost"},
		{"z", "x"},
	} {
		f := NewFunction(fn[0], nil)
		for _, c := range fn[1:] {
			f.Entry().Instrs = append(f.Entry().Instrs, Instr{Op: OpCall, Dst: NoReg, Callee: c})
		}
		f.Entry().Term = Terminator{Kind: TermReturn, Val: NoReg}
		p.AddFunc(f)
	}
	return p
}

func TestSCCQueriesMatchFreshScan(t *testing.T) {
	for _, p := range []*Program{callProg(t), sccProg()} {
		CheckSCCQueries(t, BuildCallGraph(p))
	}
	cg := BuildCallGraph(sccProg())
	if !cg.InSameSCC("x", "z") || !cg.InSameSCC("s", "s") || cg.InSameSCC("main", "main") {
		t.Fatal("3-cycle and self-loop must be recursive, main not")
	}
	if cg.InSameSCC("ghost", "ghost") || cg.InSameSCC("y", "ghost") || cg.isRecursive("ghost") {
		t.Fatal("a callee without a function is in no cycle")
	}
}

var sinkBool bool

// BenchmarkInSameSCC is the inliners' per-call-site question.
func BenchmarkInSameSCC(b *testing.B) {
	cg := BuildCallGraph(callProg(b))
	order := cg.BottomUpOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = cg.InSameSCC(order[i%len(order)], order[(i+1)%len(order)])
	}
}

func TestCFGChecksumProperties(t *testing.T) {
	f := buildDiamond(t)
	sum := f.CFGChecksum()
	if sum != CloneFunction(f).CFGChecksum() {
		t.Fatal("checksum must be stable under cloning")
	}
	// Changing a line number must not change the checksum.
	g := CloneFunction(f)
	g.Blocks[1].Instrs[0].Loc = &Loc{Func: "diamond", Line: 999}
	if g.CFGChecksum() != sum {
		t.Fatal("checksum must ignore debug lines")
	}
	// Rewiring an edge must change the checksum.
	h := CloneFunction(f)
	h.Blocks[1].Term.Succs[0] = h.Blocks[2]
	if h.CFGChecksum() == sum {
		t.Fatal("checksum must reflect CFG edge changes")
	}
	// Adding a call must change the checksum.
	k := CloneFunction(f)
	k.Blocks[1].Instrs = append(k.Blocks[1].Instrs, Instr{Op: OpCall, Dst: NoReg, Callee: "x"})
	if k.CFGChecksum() == sum {
		t.Fatal("checksum must reflect call additions")
	}
	// Adding a non-call instruction must NOT change the checksum
	// (this is what makes comment/statement-neutral edits transparent).
	m := CloneFunction(f)
	m.Blocks[1].Instrs = append(m.Blocks[1].Instrs, Instr{Op: OpConst, Dst: m.NewReg(), Value: 1})
	if m.CFGChecksum() != sum {
		t.Fatal("checksum should ignore straight-line non-call instructions")
	}
}

// isRecursive reports whether fn participates in any cycle.
func (cg *CallGraph) isRecursive(fn string) bool {
	if cg.Edges[fn][fn] {
		return true
	}
	c, ok := cg.comp[fn]
	return ok && len(cg.sccs[c]) > 1
}
