package sim

import (
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/source"
)

const icallSrc = `
func main(n, which) {
	var a = &alpha;
	var b = &beta;
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		var h = a;
		if (which == 1) { h = b; }
		s = s + icall(h, i);
	}
	return s;
}
func alpha(x) { return x + 1; }
func beta(x) { return x * 2; }
`

func buildICall(t testing.TB, instrument bool) *Machine {
	t.Helper()
	f, err := source.Parse("m", icallSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	bin, err := codegen.Lower(p, codegen.Options{Instrument: instrument})
	if err != nil {
		t.Fatal(err)
	}
	return New(bin, DefaultCostParams(), PMUConfig{})
}

func TestICallDispatchesCorrectTarget(t *testing.T) {
	m := buildICall(t, false)
	got, err := m.Run(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 { // sum(i+1) for i in 0..9
		t.Fatalf("alpha dispatch = %d, want 55", got)
	}
	m.Reset()
	got, err = m.Run(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 90 { // sum(2i) for i in 0..9
		t.Fatalf("beta dispatch = %d, want 90", got)
	}
}

func TestICallCountsAsIndirect(t *testing.T) {
	m := buildICall(t, false)
	if _, err := m.Run(25, 0); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.IndirectCalls != 25 {
		t.Fatalf("indirect calls = %d, want 25", st.IndirectCalls)
	}
	if st.Calls < st.IndirectCalls {
		t.Fatal("Calls must include indirect calls")
	}
}

func TestICallBTBMispredictsOnTargetSwitch(t *testing.T) {
	// Stable target: ~0 indirect mispredicts beyond warmup.
	m := buildICall(t, false)
	if _, err := m.Run(100, 0); err != nil {
		t.Fatal(err)
	}
	stable := m.Stats().Mispredicts

	// Same trip count with the other target — still stable per run, but
	// the switch between runs forces a BTB update.
	if _, err := m.Run(100, 1); err != nil {
		t.Fatal(err)
	}
	after := m.Stats().Mispredicts - stable
	if after == 0 {
		t.Fatal("target switch should cost at least one BTB mispredict")
	}
	if after > 10 {
		t.Fatalf("stable-target run mispredicted %d times — BTB not learning", after)
	}
}

func TestValueProfilingOnlyWhenInstrumented(t *testing.T) {
	plain := buildICall(t, false)
	if _, err := plain.Run(30, 0); err != nil {
		t.Fatal(err)
	}
	if plain.ValueProfile() != nil {
		t.Fatal("uninstrumented binary must not collect value profiles")
	}

	instr := buildICall(t, true)
	if _, err := instr.Run(30, 0); err != nil {
		t.Fatal(err)
	}
	vp := instr.ValueProfile()
	if len(vp) == 0 {
		t.Fatal("instrumented binary must collect value profiles")
	}
	var total uint64
	for _, m := range vp {
		for _, n := range m {
			total += n
		}
	}
	if total != 30 {
		t.Fatalf("value profile total = %d, want 30", total)
	}
	// Value profiling must cost cycles.
	if instr.Stats().Cycles <= plain.Stats().Cycles {
		t.Fatal("instrumented run should be slower")
	}
}

func TestICallOutOfRangeTargetWraps(t *testing.T) {
	// h derived from arbitrary integers must not crash: targets wrap into
	// the function table (documented simulator semantics).
	src := `
func main(x) { return icall(x, 7); }
func f0(a) { return a + 100; }
func f1(a) { return a + 200; }
`
	f, err := source.Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(bin, DefaultCostParams(), PMUConfig{})
	for _, target := range []int64{0, 1, 2, 999, -5} {
		m.Reset()
		if _, err := m.Run(target); err != nil {
			t.Fatalf("icall(%d): %v", target, err)
		}
	}
}

func TestPMURingWraparound(t *testing.T) {
	p := newPMU(PMUConfig{SamplePeriod: 0, LBRDepth: 4})
	for i := uint64(1); i <= 10; i++ {
		p.recordBranch(i, i+100)
	}
	snap := p.snapshotLBR()
	if len(snap) != 4 {
		t.Fatalf("LBR depth = %d, want 4", len(snap))
	}
	// Newest first: 10, 9, 8, 7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if snap[i].From != want {
			t.Fatalf("snap[%d].From = %d, want %d", i, snap[i].From, want)
		}
	}
}

func TestPMUJitterDeterministic(t *testing.T) {
	a := newPMU(PMUConfig{SamplePeriod: 100, LBRDepth: 4, Jitter: true, Seed: 7})
	b := newPMU(PMUConfig{SamplePeriod: 100, LBRDepth: 4, Jitter: true, Seed: 7})
	for i := 0; i < 1000; i++ {
		ra := a.recordBranch(uint64(i), uint64(i+1)) && a.rearm()
		rb := b.recordBranch(uint64(i), uint64(i+1)) && b.rearm()
		if ra != rb {
			t.Fatalf("jitter diverged at branch %d", i)
		}
	}
	// Different seeds diverge.
	c := newPMU(PMUConfig{SamplePeriod: 100, LBRDepth: 4, Jitter: true, Seed: 8})
	diverged := false
	a2 := newPMU(PMUConfig{SamplePeriod: 100, LBRDepth: 4, Jitter: true, Seed: 7})
	for i := 0; i < 1000; i++ {
		if (a2.recordBranch(uint64(i), 0) && a2.rearm()) != (c.recordBranch(uint64(i), 0) && c.rearm()) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds should produce different sampling points")
	}
}

func TestSamplePeriodZeroNeverSamples(t *testing.T) {
	m := buildICall(t, false)
	if _, err := m.Run(500, 0); err != nil {
		t.Fatal(err)
	}
	if len(m.Samples()) != 0 {
		t.Fatalf("period 0 must disable sampling, got %d samples", len(m.Samples()))
	}
}
