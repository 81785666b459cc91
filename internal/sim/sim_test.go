package sim

import (
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/source"
)

func compile(t testing.TB, src string, opts codegen.Options, withProbes bool) *machine.Prog {
	t.Helper()
	f, err := source.Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	if withProbes {
		probe.InsertProgram(p)
	}
	mp, err := codegen.Lower(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func run(t testing.TB, src string, args ...int64) int64 {
	t.Helper()
	mp := compile(t, src, codegen.Options{}, false)
	m := New(mp, DefaultCostParams(), PMUConfig{})
	v, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestExecArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		args []int64
		want int64
	}{
		{"func main(a, b) { return a + b; }", []int64{3, 4}, 7},
		{"func main(a, b) { return a - b; }", []int64{3, 4}, -1},
		{"func main(a, b) { return a * b; }", []int64{3, 4}, 12},
		{"func main(a, b) { return a / b; }", []int64{12, 4}, 3},
		{"func main(a, b) { return a / b; }", []int64{12, 0}, 0}, // div-by-zero → 0
		{"func main(a, b) { return a % b; }", []int64{13, 4}, 1},
		{"func main(a, b) { return a % b; }", []int64{13, 0}, 0},
		{"func main(a) { return -a; }", []int64{5}, -5},
		{"func main(a) { return !a; }", []int64{5}, 0},
		{"func main(a) { return !a; }", []int64{0}, 1},
		{"func main(a, b) { return a < b; }", []int64{1, 2}, 1},
		{"func main(a, b) { return a >= b; }", []int64{1, 2}, 0},
		{"func main(a, b) { return a == b; }", []int64{2, 2}, 1},
		{"func main(a, b) { return a != b; }", []int64{2, 2}, 0},
	}
	for _, c := range cases {
		if got := run(t, c.src, c.args...); got != c.want {
			t.Errorf("%s with %v = %d, want %d", c.src, c.args, got, c.want)
		}
	}
}

func TestExecControlFlow(t *testing.T) {
	fib := `
func main(n) { return fib(n); }
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}`
	if got := run(t, fib, 10); got != 55 {
		t.Fatalf("fib(10) = %d", got)
	}
	loop := `
func main(n) {
	var s = 0;
	for (var i = 1; i <= n; i = i + 1) { s = s + i; }
	return s;
}`
	if got := run(t, loop, 100); got != 5050 {
		t.Fatalf("sum(100) = %d", got)
	}
	sw := `
func main(a) {
	var r = 0;
	switch (a % 3) {
	case 0: r = 100;
	case 1: r = 200;
	default: r = 300;
	}
	return r;
}`
	for arg, want := range map[int64]int64{0: 100, 1: 200, 2: 300, 3: 100, 4: 200} {
		if got := run(t, sw, arg); got != want {
			t.Errorf("switch(%d) = %d, want %d", arg, got, want)
		}
	}
	shortcirc := `
global hits;
func main(a, b) {
	if (touch(a) > 0 && touch(b) > 0) { }
	return hits;
}
func touch(x) { hits = hits + 1; return x; }`
	if got := run(t, shortcirc, 0, 1); got != 1 {
		t.Fatalf("&& must short-circuit: %d touches", got)
	}
	if got := run(t, shortcirc, 1, 1); got != 2 {
		t.Fatalf("&& both sides: %d touches", got)
	}
}

func TestExecGlobalsPersistAcrossRuns(t *testing.T) {
	src := `
global count;
func main(a) { count = count + a; return count; }`
	mp := compile(t, src, codegen.Options{}, false)
	m := New(mp, DefaultCostParams(), PMUConfig{})
	for i := int64(1); i <= 3; i++ {
		got, err := m.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if got != i {
			t.Fatalf("run %d: count = %d", i, got)
		}
	}
	m.Reset()
	if got, _ := m.Run(1); got != 1 {
		t.Fatalf("after Reset: count = %d", got)
	}
}

func TestExecArrays(t *testing.T) {
	src := `
global tab[5] = 10, 20, 30, 40, 50;
func main(i, v) { tab[i] = v; return tab[0] + tab[i]; }`
	if got := run(t, src, 2, 7); got != 17 {
		t.Fatalf("array rw = %d", got)
	}
	// Out-of-range indices wrap (documented simulator semantics).
	if got := run(t, src, 500, 9); got == 0 {
		t.Fatalf("wrapped index should still read initialized memory, got %d", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	src := `func main(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + call(i); } return s; }
func call(x) { return x + 1; }`
	mp := compile(t, src, codegen.Options{}, false)
	m := New(mp, DefaultCostParams(), PMUConfig{})
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Instructions == 0 || st.Cycles < st.Instructions {
		t.Fatalf("stats implausible: %+v", st)
	}
	if st.Calls != 50 {
		t.Fatalf("calls = %d, want 50", st.Calls)
	}
	if st.Returns != 51 { // 50 callees + main
		t.Fatalf("returns = %d, want 51", st.Returns)
	}
	if st.CondBranches < 50 {
		t.Fatalf("cond branches = %d", st.CondBranches)
	}
}

func TestInstrumentationCounters(t *testing.T) {
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }`
	mp := compile(t, src, codegen.Options{Instrument: true}, true)
	m := New(mp, DefaultCostParams(), PMUConfig{})
	if _, err := m.Run(7); err != nil {
		t.Fatal(err)
	}
	// Find the loop-body counter: some counter must read exactly 7.
	found := false
	for i, c := range m.Counters() {
		if c == 7 {
			found = true
			_ = i
		}
	}
	if !found {
		t.Fatalf("no counter recorded 7 body iterations: %v", m.Counters())
	}
	// Entry block counter reads 1.
	entry := false
	for _, c := range m.Counters() {
		if c == 1 {
			entry = true
		}
	}
	if !entry {
		t.Fatalf("no entry counter: %v", m.Counters())
	}
}

func TestInstrumentationOverheadVisible(t *testing.T) {
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + i * 3 + 1; i = i + 1; } return s; }`
	plain := compile(t, src, codegen.Options{}, false)
	pseudo := compile(t, src, codegen.Options{}, true)
	instr := compile(t, src, codegen.Options{Instrument: true}, true)

	cycles := func(mp *machine.Prog) uint64 {
		m := New(mp, DefaultCostParams(), PMUConfig{})
		if _, err := m.Run(10000); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Cycles
	}
	c0, c1, c2 := cycles(plain), cycles(pseudo), cycles(instr)
	if c1 != c0 {
		t.Fatalf("pseudo-probes must be free at run time here: %d vs %d", c1, c0)
	}
	if float64(c2) < 1.2*float64(c0) {
		t.Fatalf("instrumentation overhead too small: %d vs %d", c2, c0)
	}
}

func TestSamplingProducesSamples(t *testing.T) {
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + leaf(i); i = i + 1; } return s; }
func leaf(x) { return x * 2 + 1; }`
	mp := compile(t, src, codegen.Options{}, true)
	m := New(mp, DefaultCostParams(), DefaultPMUConfig(64))
	if _, err := m.Run(5000); err != nil {
		t.Fatal(err)
	}
	samples := m.Samples()
	if len(samples) < 50 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	for _, s := range samples[:10] {
		if len(s.LBR) == 0 {
			t.Fatal("sample without LBR")
		}
		if len(s.Stack) == 0 {
			t.Fatal("sample without stack (SampleStacks on)")
		}
		// Every LBR From must be a branch-kind instruction.
		for _, br := range s.LBR {
			in := mp.InstrAt(br.From)
			if in == nil {
				t.Fatalf("LBR From %#x unmapped", br.From)
			}
			if !isTakenBranchKind(in.Kind) {
				t.Fatalf("LBR From %#x is %v, not a branch", br.From, in.Kind)
			}
			if mp.InstrAt(br.To) == nil {
				t.Fatalf("LBR To %#x unmapped", br.To)
			}
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }`
	mp := compile(t, src, codegen.Options{}, true)
	collect := func() []Sample {
		m := New(mp, DefaultCostParams(), DefaultPMUConfig(32))
		if _, err := m.Run(3000); err != nil {
			t.Fatal(err)
		}
		return m.Samples()
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].LBR) != len(b[i].LBR) || a[i].LBR[0] != b[i].LBR[0] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestStackSampleSynchronizedWithPEBS(t *testing.T) {
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + leaf(i); i = i + 1; } return s; }
func leaf(x) { return x + 1; }`
	mp := compile(t, src, codegen.Options{}, true)
	cfg := DefaultPMUConfig(16)
	cfg.PEBS = true
	m := New(mp, DefaultCostParams(), cfg)
	if _, err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
	// With PEBS, the leaf stack frame function must always contain the
	// last LBR branch's target.
	for _, s := range m.Samples() {
		lastTo := s.LBR[0].To
		if mp.FuncAt(s.Stack[0]) != mp.FuncAt(lastTo) {
			t.Fatalf("PEBS sample out of sync: stack leaf %#x (%s) vs LBR to %#x (%s)",
				s.Stack[0], mp.FuncAt(s.Stack[0]).Name, lastTo, mp.FuncAt(lastTo).Name)
		}
	}
}

func TestStackSampleSkidsWithoutPEBS(t *testing.T) {
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + leaf(i); i = i + 1; } return s; }
func leaf(x) { return x + 1; }`
	mp := compile(t, src, codegen.Options{}, true)
	cfg := DefaultPMUConfig(16)
	cfg.PEBS = false
	m := New(mp, DefaultCostParams(), cfg)
	if _, err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
	skids := 0
	for _, s := range m.Samples() {
		if mp.FuncAt(s.Stack[0]) != mp.FuncAt(s.LBR[0].To) {
			skids++
		}
	}
	if skids == 0 {
		t.Fatal("without PEBS some samples must lag the LBR by one frame")
	}
}

func TestTailCallExecution(t *testing.T) {
	f, err := source.Parse("m", `
func main(a) { return middle(a); }
func middle(x) { return leaf(x + 1); }
func leaf(y) { return y * 10; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Funcs["middle"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				b.Instrs[i].TailCall = true
			}
		}
	}
	mp, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(mp, DefaultCostParams(), PMUConfig{})
	got, err := m.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("tail-call chain = %d, want 50", got)
	}
	// Only two real returns retire: leaf's (straight to main) and main's.
	if m.Stats().Returns != 2 {
		t.Fatalf("returns = %d, want 2 (frame reused)", m.Stats().Returns)
	}
}

func TestStepLimit(t *testing.T) {
	src := `func main() { while (1) { } return 0; }`
	mp := compile(t, src, codegen.Options{}, false)
	m := New(mp, DefaultCostParams(), PMUConfig{})
	m.MaxSteps = 10000
	if _, err := m.Run(); err != errStepLimit {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
}

func TestICacheAffectsCycles(t *testing.T) {
	// A program ping-ponging between two far-apart functions should cost
	// more cycles with a tiny i-cache than with a big one.
	src := `func main(n) { var s = 0; var i = 0; while (i < n) { s = s + a(i) + b(i); i = i + 1; } return s; }
func a(x) { return x + 1 + x * 2 + x / 3 + x % 5 + x * 7 + x - 2 + x * 9 + x + 4; }
func b(x) { return x * 3 - x / 2 + x % 7 + x * 11 + x - 8 + x * 13 + x + 6 + x * 5; }`
	mp := compile(t, src, codegen.Options{}, false)
	small := DefaultCostParams()
	small.ICacheBytes = 128
	big := DefaultCostParams()
	big.ICacheBytes = 64 * 1024
	ms := New(mp, small, PMUConfig{})
	mb := New(mp, big, PMUConfig{})
	if _, err := ms.Run(2000); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Run(2000); err != nil {
		t.Fatal(err)
	}
	if ms.Stats().Cycles <= mb.Stats().Cycles {
		t.Fatalf("tiny i-cache should cost more: %d vs %d", ms.Stats().Cycles, mb.Stats().Cycles)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	// A 100%-biased branch should mispredict far less than an alternating
	// one with the same trip count.
	biased := `func main(n) { var s = 0; var i = 0; while (i < n) { if (1 < 2) { s = s + 1; } i = i + 1; } return s; }`
	alternating := `func main(n) { var s = 0; var i = 0; while (i < n) { if (i % 2 == 0) { s = s + 1; } i = i + 1; } return s; }`
	miss := func(src string) uint64 {
		mp := compile(t, src, codegen.Options{}, false)
		m := New(mp, DefaultCostParams(), PMUConfig{})
		if _, err := m.Run(4000); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Mispredicts
	}
	b, a := miss(biased), miss(alternating)
	if b*10 >= a {
		t.Fatalf("biased branch mispredicts %d should be ≪ alternating %d", b, a)
	}
}

// isTakenBranchKind reports whether an instruction of kind k can produce an
// LBR record (calls, returns and jumps are taken branches; KBranch only
// when taken).
func isTakenBranchKind(k machine.Kind) bool {
	switch k {
	case machine.KBranch, machine.KJump, machine.KCall, machine.KTailCall, machine.KICall, machine.KRet:
		return true
	}
	return false
}
