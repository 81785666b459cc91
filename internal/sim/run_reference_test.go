package sim_test

import (
	"fmt"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/sim"
)

// TestRunMatchesReference holds Run to the per-instruction loop kept in
// reference_test.go: identical return value, error, Stats, globals,
// counters, value profile, sample stream and meter — and the predictor,
// BTB, i-cache and LBR state the next request starts from — after every
// request, on the golden matrix (every workload and examples/ module,
// plain/probed/instrumented, the four machine configurations) and on
// generated machine programs with step limits from 1 to a few thousand.
func TestRunMatchesReference(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		for _, p := range goldenPrograms(t) {
			reqs := goldenStream(p.name, p.bound)
			for _, b := range goldenBuilds {
				res, err := pgo.Build(p.files, b.cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, b.name, err)
				}
				for _, cfg := range goldenConfigs() {
					c := sim.RefCase{Prog: res.Bin, Reqs: reqs, PMU: cfg.pmu, Cost: cfg.cost, Meter: cfg.meter}
					checkReference(t, p.name+"/"+b.name+"/"+cfg.name, c)
				}
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		n := int64(600)
		if testing.Short() {
			n = 100
		}
		for seed := int64(1); seed <= n; seed++ {
			checkReference(t, fmt.Sprintf("seed %d", seed), sim.GenRefCase(seed))
		}
	})
}

// TestUntimedMatchesTimed holds the untimed machine (CostParams{}) to the
// timed one running the same requests beside it: after every request the
// same return value, error, globals, registers, counters, value profile,
// sample stream, meter tallies and PMU state, and the same Stats but for
// Cycles, Mispredicts and ICacheMisses, which the untimed machine leaves at
// 0 — on the golden matrix and on the generated machine programs, whose
// step limits from 1 up end runs inside retirePrefix.
func TestUntimedMatchesTimed(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		for _, p := range goldenPrograms(t) {
			reqs := goldenStream(p.name, p.bound)
			for _, b := range goldenBuilds {
				res, err := pgo.Build(p.files, b.cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, b.name, err)
				}
				for _, cfg := range goldenConfigs() {
					c := sim.RefCase{Prog: res.Bin, Reqs: reqs, PMU: cfg.pmu, Cost: cfg.cost, Meter: cfg.meter}
					checkUntimed(t, p.name+"/"+b.name+"/"+cfg.name, c)
				}
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		n := int64(600)
		if testing.Short() {
			n = 100
		}
		for seed := int64(1); seed <= n; seed++ {
			checkUntimed(t, fmt.Sprintf("seed %d", seed), sim.GenRefCase(seed))
		}
	})
}

// checkUntimed runs c's requests on a machine under c.Cost and on an
// untimed one side by side and stops at the first request after which they
// differ.
func checkUntimed(t *testing.T, key string, c sim.RefCase) {
	t.Helper()
	timed := sim.New(c.Prog, c.Cost, c.PMU)
	untimed := sim.New(c.Prog, sim.CostParams{}, c.PMU)
	if c.Meter {
		timed.SetOverheadMeter(sim.NewOverheadMeter())
		untimed.SetOverheadMeter(sim.NewOverheadMeter())
	}
	if c.MaxSteps != 0 {
		timed.MaxSteps, untimed.MaxSteps = c.MaxSteps, c.MaxSteps
	}
	seen := 0
	for i, req := range c.Reqs {
		tv, terr := timed.Run(req...)
		uv, uerr := untimed.Run(req...)
		if tv != uv || fmt.Sprint(terr) != fmt.Sprint(uerr) {
			t.Fatalf("%s request %d: untimed Run = %d, %v; timed %d, %v\n%s", key, i, uv, uerr, tv, terr, listing(c.Prog))
		}
		if d := sim.UntimedDiff(untimed, timed, seen); d != "" {
			t.Fatalf("%s request %d (%v): %s\n%s", key, i, terr, d, listing(c.Prog))
		}
		seen = len(timed.Samples())
	}
}

// FuzzRunReference is the generated half of TestRunMatchesReference with a
// fuzzer-chosen seed.
func FuzzRunReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkReference(t, fmt.Sprintf("seed %d", seed), sim.GenRefCase(seed))
	})
}

// checkReference runs c's requests on a machine and on a reference machine
// side by side and stops at the first request after which they differ.
func checkReference(t *testing.T, key string, c sim.RefCase) {
	t.Helper()
	got := sim.New(c.Prog, c.Cost, c.PMU)
	want := sim.NewReference(c.Prog, c.Cost, c.PMU)
	if c.Meter {
		got.SetOverheadMeter(sim.NewOverheadMeter())
		want.SetOverheadMeter(sim.NewOverheadMeter())
	}
	if c.MaxSteps != 0 {
		got.MaxSteps, want.MaxSteps = c.MaxSteps, c.MaxSteps
	}
	seen := 0
	for i, req := range c.Reqs {
		gv, gerr := got.Run(req...)
		wv, werr := want.RunReference(req...)
		if gv != wv || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s request %d: Run = %d, %v; reference %d, %v\n%s", key, i, gv, gerr, wv, werr, listing(c.Prog))
		}
		if d := sim.StateDiff(got, want, seen); d != "" {
			t.Fatalf("%s request %d (%v): %s\n%s", key, i, werr, d, listing(c.Prog))
		}
		seen = len(want.Samples())
	}
}

// listing prints a small generated program for a failure message.
func listing(p *machine.Prog) string {
	if len(p.Instrs) > 400 {
		return fmt.Sprintf("(%d instructions)", len(p.Instrs))
	}
	s := ""
	for i, in := range p.Instrs {
		s += fmt.Sprintf("%4d %#x kind=%d op=%d bin=%d dst=%d a=%d b=%d c=%d v=%d ref=%d tgt=%#x neg=%v args=%v\n",
			i, in.Addr, in.Kind, in.Op, in.Bin, in.Dst, in.A, in.B, in.C, in.Value, in.Ref, in.Target, in.BranchNeg, p.Args(&in))
	}
	return s
}
