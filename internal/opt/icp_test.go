package opt

import (
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
)

func generateProbeProfileForTest(t testing.TB, bin *machine.Prog, m *sim.Machine) *profdata.Profile {
	t.Helper()
	return sampling.GenerateProbeProfile(bin, m.Samples(), sampling.FlatOptions{})
}

// dispatchSrc calls through a function table with a heavily skewed target
// distribution: handler0 dominates.
const dispatchSrc = `
global table[4];
global inited;
func setup() {
	table[0] = 0;
	return 0;
}
func main(n) {
	var h0 = &handler0;
	var h1 = &handler1;
	var h2 = &handler2;
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		var h = h0;
		if (i % 16 == 7) { h = h1; }
		if (i % 64 == 9) { h = h2; }
		s = s + icall(h, i);
	}
	return s;
}
func handler0(x) { return x * 2 + 1; }
func handler1(x) { return x - 5; }
func handler2(x) { return x * x % 97; }
`

func buildDispatch(t testing.TB, withProbes bool) *ir.Program {
	t.Helper()
	p := lower(t, dispatchSrc, withProbes)
	return p
}

func runBin(t testing.TB, p *ir.Program, instrument bool, args ...int64) (*sim.Machine, int64) {
	t.Helper()
	bin, err := codegen.Lower(p, codegen.Options{Instrument: instrument})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	v, err := m.Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return m, v
}

func expectedDispatch(n int64) int64 {
	var s int64
	for i := int64(0); i < n; i++ {
		switch {
		case i%64 == 9:
			s += i * i % 97
		case i%16 == 7:
			s += i - 5
		default:
			s += i*2 + 1
		}
	}
	return s
}

func TestIndirectCallExecution(t *testing.T) {
	p := buildDispatch(t, false)
	_, got := runBin(t, p, false, 200)
	if want := expectedDispatch(200); got != want {
		t.Fatalf("icall dispatch = %d, want %d", got, want)
	}
}

func TestIndirectCallWithProbesAndOptimizer(t *testing.T) {
	p := buildDispatch(t, true)
	cfg := &Config{Barrier: BarrierWeak}
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatal(err)
	}
	_, got := runBin(t, p, false, 200)
	if want := expectedDispatch(200); got != want {
		t.Fatalf("optimized icall dispatch = %d, want %d", got, want)
	}
	// The handlers' addresses are taken: dead-function elimination must
	// keep them all.
	for _, fn := range []string{"handler0", "handler1", "handler2"} {
		if p.Funcs[fn] == nil {
			t.Fatalf("%s dropped despite address-taken", fn)
		}
	}
}

func TestValueProfileCollection(t *testing.T) {
	p := buildDispatch(t, true)
	bin, err := codegen.Lower(p, codegen.Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	if _, err := m.Run(256); err != nil {
		t.Fatal(err)
	}
	vp := m.ValueProfile()
	if len(vp) == 0 {
		t.Fatal("instrumented run collected no value profile")
	}
	var total, dominant uint64
	for _, targets := range vp {
		for id, n := range targets {
			total += n
			if bin.Funcs[id].Name == "handler0" {
				dominant += n
			}
		}
	}
	if total != 256 {
		t.Fatalf("value profile total = %d, want 256", total)
	}
	if dominant*100/total < 70 {
		t.Fatalf("handler0 share = %d/%d, expected dominance", dominant, total)
	}
}

func TestICPPromotesDominantTarget(t *testing.T) {
	p := buildDispatch(t, true)
	f := p.Funcs["main"]
	// Annotate manually: the icall site's block is hot and dominated by
	// handler0.
	prof := profdata.New(profdata.ProbeBased, false)
	fp := prof.FuncProfile("main")
	var icallProbeID int32
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpICall {
				icallProbeID = b.Instrs[i].Probe.ID
				b.Weight, b.HasWeight = 1000, true
			}
		}
	}
	if icallProbeID == 0 {
		t.Fatal("icall probe missing")
	}
	loc := profdata.LocKey{ID: icallProbeID}
	fp.AddCall(loc, "handler0", 900)
	fp.AddCall(loc, "handler1", 80)
	fp.AddCall(loc, "handler2", 20)
	f.HasProfile = true

	n := icp(p, f, prof, icpMinCount)
	if n != 1 {
		t.Fatalf("promotions = %d, want 1", n)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("post-ICP verify: %v\n%s", err, f)
	}
	// A guarded direct call to handler0 must now exist.
	foundDirect, foundIndirect := false, false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpCall:
				if b.Instrs[i].Callee == "handler0" {
					foundDirect = true
					if b.Instrs[i].Probe == nil || b.Instrs[i].Probe.ID != icallProbeID {
						t.Fatal("promoted call lost its call probe identity")
					}
				}
			case ir.OpICall:
				foundIndirect = true
			}
		}
	}
	if !foundDirect || !foundIndirect {
		t.Fatalf("direct=%v indirect=%v after promotion", foundDirect, foundIndirect)
	}
	// Weight split ~90/10.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Callee == "handler0" {
				if b.Weight != 900 {
					t.Fatalf("direct block weight = %d, want 900", b.Weight)
				}
			}
		}
	}
	// Semantics preserved.
	_, got := runBin(t, p, false, 200)
	if want := expectedDispatch(200); got != want {
		t.Fatalf("post-ICP output = %d, want %d", got, want)
	}
}

func TestICPRefusesWeakDominance(t *testing.T) {
	p := buildDispatch(t, true)
	f := p.Funcs["main"]
	prof := profdata.New(profdata.ProbeBased, false)
	fp := prof.FuncProfile("main")
	var icallProbeID int32
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpICall {
				icallProbeID = b.Instrs[i].Probe.ID
			}
		}
	}
	loc := profdata.LocKey{ID: icallProbeID}
	fp.AddCall(loc, "handler0", 40)
	fp.AddCall(loc, "handler1", 35)
	fp.AddCall(loc, "handler2", 25)
	f.HasProfile = true
	if n := icp(p, f, prof, icpMinCount); n != 0 {
		t.Fatalf("weakly dominated site promoted (%d)", n)
	}
}

func TestICPPromotedCallIsInlinable(t *testing.T) {
	// End-to-end through the optimizer: profile-guided ICP followed by the
	// inliner should leave the hot path with neither icall nor call.
	p := buildDispatch(t, true)
	probeP := probe.BuildIndex(p.Funcs["main"])
	_ = probeP
	// Build a real profile via simulation.
	train := buildDispatch(t, true)
	if _, err := Optimize(train, &Config{}); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(train, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	for r := 0; r < 30; r++ {
		if _, err := m.Run(400); err != nil {
			t.Fatal(err)
		}
	}
	prof := generateProbeProfileForTest(t, bin, m)
	st, err := Optimize(p, &Config{Profile: prof, Barrier: BarrierWeak})
	if err != nil {
		t.Fatal(err)
	}
	if st.ICPromotions == 0 {
		t.Fatalf("pipeline performed no ICP: %+v", st)
	}
	_, got := runBin(t, p, false, 200)
	if want := expectedDispatch(200); got != want {
		t.Fatalf("pipeline+ICP output = %d, want %d", got, want)
	}
}
