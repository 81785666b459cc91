package overhead

import (
	"bytes"
	"strings"
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

const testSrc = `
func main(n) { return hot(n) + cold(n); }
func hot(n) {
	var s = 0;
	var i = 0;
	while (i < n) { s = s + i; i = i + 1; }
	return s;
}
func cold(n) { return n * 2; }`

func compileProg(t *testing.T, instrument bool) *machine.Prog {
	t.Helper()
	f, err := source.Parse("m", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	mp, err := codegen.Lower(p, codegen.Options{Instrument: instrument})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func meteredRun(t *testing.T, bin *machine.Prog) (sim.Stats, *sim.OverheadMeter) {
	t.Helper()
	cfg := sim.PMUConfig{SamplePeriod: 17, LBRDepth: 16, PEBS: true, SampleStacks: true}
	m := sim.New(bin, sim.ProfilingCostParams(), cfg)
	meter := sim.NewOverheadMeter()
	m.SetOverheadMeter(meter)
	for _, n := range []int64{50, 80, 120} {
		if _, err := m.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	return m.Stats(), meter
}

// Attribute's ledger satisfies the artifact invariants and survives an
// encode/decode round trip.
func TestAttributeValidatesAndRoundTrips(t *testing.T) {
	bin := compileProg(t, true)
	stats, meter := meteredRun(t, bin)
	rep := Attribute(bin, stats, meter, 17)
	if err := rep.Validate(); err != nil {
		t.Fatalf("fresh ledger invalid: %v", err)
	}
	if rep.Totals.Samples == 0 || rep.Totals.ProbeIncrements == 0 {
		t.Fatalf("run metered nothing: %+v", rep.Totals)
	}
	if !rep.Instrumented {
		t.Fatal("instrumented run not marked")
	}
	if rep.Totals.OverheadPct <= 0 {
		t.Fatalf("overhead pct = %v", rep.Totals.OverheadPct)
	}
	// The probe table resolves counter IDs through the binary's key table:
	// no "?" rows on a well-formed binary.
	for _, p := range rep.Probes {
		if p.Func == "?" {
			t.Fatalf("unresolved probe row: %+v", p)
		}
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Totals != rep.Totals {
		t.Fatalf("totals changed in round trip:\n%+v\n%+v", rep.Totals, back.Totals)
	}
}

// Two identical metered runs yield byte-identical normalized artifacts —
// the determinism bar `make check`'s overhead lane enforces end to end.
func TestArtifactDeterminism(t *testing.T) {
	encode := func() []byte {
		bin := compileProg(t, true)
		stats, meter := meteredRun(t, bin)
		rep := Attribute(bin, stats, meter, 17)
		rep.Confidence = Score(bin, flatProfile("hot", 400, "cold", 3), 17, 0, 0)
		rep.CollectWallNS = 12345 // pretend wall time differs per run
		rep.Normalize()
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("normalized artifacts differ:\n%s\n---\n%s", a, b)
	}
}

// Validate rejects broken invariants: wrong schema, cycle identities, and
// unsorted tables.
func TestValidateRejectsCorruptArtifacts(t *testing.T) {
	bin := compileProg(t, true)
	stats, meter := meteredRun(t, bin)
	fresh := func() *Report { return Attribute(bin, stats, meter, 17) }

	r := fresh()
	r.Schema = "csspgo-overhead/v0"
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
	r = fresh()
	r.Totals.AppCycles++
	if err := r.Validate(); err == nil {
		t.Fatal("broken cycle identity accepted")
	}
	r = fresh()
	r.Totals.ProbeCycles++
	r.Totals.OverheadCycles++
	r.Totals.TotalCycles++
	if err := r.Validate(); err != nil {
		t.Fatalf("consistent perturbation rejected: %v", err)
	}
	r = fresh()
	if len(r.Funcs) >= 2 {
		r.Funcs[0], r.Funcs[len(r.Funcs)-1] = r.Funcs[len(r.Funcs)-1], r.Funcs[0]
		if r.Funcs[0].Cycles != r.Funcs[len(r.Funcs)-1].Cycles {
			if err := r.Validate(); err == nil {
				t.Fatal("unsorted func table accepted")
			}
		}
	}
}

// flatProfile builds a flat probe-based profile with the given
// name/sample-count pairs.
func flatProfile(kv ...any) *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, false)
	for i := 0; i < len(kv); i += 2 {
		fp := p.FuncProfile(kv[i].(string))
		fp.AddBody(profdata.LocKey{ID: 1}, uint64(kv[i+1].(int)))
	}
	return p
}

// Confidence classification: >=1% share and >=100 samples is hot-confident,
// >=1% share with <100 samples is hot-uncertain, everything else (including
// probed-but-never-sampled functions) is cold-instrumented.
func TestConfidenceClassification(t *testing.T) {
	prof := flatProfile("hotok", 2000, "hotunc", 50, "coldish", 3)
	c := ScoreProfile(prof, 797, 0, 0)
	classes := map[string]string{}
	for _, fc := range c.Funcs {
		classes[fc.Func] = fc.Class
		if fc.Coverage != -1 {
			t.Fatalf("%s: coverage %v without a binary", fc.Func, fc.Coverage)
		}
	}
	want := map[string]string{
		"hotok":   classHotConfident,
		"hotunc":  classHotUncertain,
		"coldish": classColdInstrumented,
	}
	for name, cls := range want {
		if classes[name] != cls {
			t.Fatalf("%s classified %q, want %q (report: %+v)", name, classes[name], cls, c)
		}
	}
	if c.HotConfident != 1 || c.HotUncertain != 1 || c.ColdInstrumented != 1 {
		t.Fatalf("class counts %d/%d/%d", c.HotConfident, c.HotUncertain, c.ColdInstrumented)
	}
	// RelErrPct follows 100/sqrt(n): ~2.24% at 2000 samples.
	if got := c.Funcs[0].RelErrPct; got < 2.2 || got > 2.3 {
		t.Fatalf("rel err at 2000 samples = %v, want ~2.24", got)
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
}

// Scoring against the binary joins probe coverage: every scored function of
// the binary gets a coverage ratio in [0,1], and probed functions absent
// from the profile still appear as cold-instrumented rows.
func TestConfidenceJoinsCoverage(t *testing.T) {
	bin := compileProg(t, false)
	prof := flatProfile("hot", 500)
	c := Score(bin, prof, 797, 0, 0)
	byName := map[string]FuncConfidence{}
	for _, fc := range c.Funcs {
		byName[fc.Func] = fc
	}
	hot, ok := byName["hot"]
	if !ok || hot.Coverage < 0 || hot.Coverage > 1 {
		t.Fatalf("hot row bad: %+v (ok=%v)", hot, ok)
	}
	cold, ok := byName["cold"]
	if !ok {
		t.Fatalf("never-sampled probed function missing from heatmap: %+v", c.Funcs)
	}
	if cold.Class != classColdInstrumented || cold.Samples != 0 {
		t.Fatalf("cold row: %+v", cold)
	}
}

// Format renders all tables without panicking and honors top-K truncation.
func TestFormatTruncates(t *testing.T) {
	bin := compileProg(t, true)
	stats, meter := meteredRun(t, bin)
	rep := Attribute(bin, stats, meter, 17)
	rep.Confidence = ScoreProfile(flatProfile("a", 100, "b", 200, "c", 300), 17, 0, 0)
	full := rep.Format(0)
	trunc := rep.Format(1)
	if !strings.Contains(full, "overhead ledger") || !strings.Contains(full, "profile confidence") {
		t.Fatalf("format lacks sections:\n%s", full)
	}
	if !strings.Contains(trunc, "more") {
		t.Fatalf("top=1 did not truncate:\n%s", trunc)
	}
}
