package sim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

// TestSharedCodeMatchesOwnDecode runs several machines at once over one
// shared Code and holds each to a machine that decoded its own: the same
// return values, errors, Stats, samples, counters, value profile and meter
// over the whole request stream. It covers the timed, untimed and profiling cost
// models on probed binaries sampled with stacks (PEBS and skid) and on
// instrumented ones with their value profile — dispatcher has indirect
// calls, adretriever tail calls, haas is what a serve refresh runs — and
// the generated machine programs, whose indirect calls train a BTB. A
// predictor, BTB or i-cache kept on the Code instead of the machine shows
// up here as a count that moves; under -race (make race), so does any
// write a run makes to the Code.
func TestSharedCodeMatchesOwnDecode(t *testing.T) {
	const machines = 4
	skid := sim.DefaultPMUConfig(199)
	skid.PEBS = false
	configs := []goldenConfig{
		{"timed", sim.DefaultCostParams(), sim.DefaultPMUConfig(199), false},
		{"skid", sim.DefaultCostParams(), skid, false},
		{"untimed", sim.CostParams{}, sim.DefaultPMUConfig(199), false},
		{"profiling", sim.ProfilingCostParams(), sim.DefaultPMUConfig(199), true},
	}
	for _, name := range []string{"dispatcher", "adretriever", "haas"} {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs := goldenStream(name, goldenBound[name])
		for _, b := range goldenBuilds[1:] { // probed, instrumented
			res, err := pgo.Build(w.Files, b.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.name, err)
			}
			for _, cfg := range configs {
				c := sim.RefCase{Prog: res.Bin, Reqs: reqs, PMU: cfg.pmu, Cost: cfg.cost, Meter: cfg.meter}
				checkShared(t, name+"/"+b.name+"/"+cfg.name, c, machines)
			}
		}
	}
	n := int64(100)
	if testing.Short() {
		n = 20
	}
	for seed := int64(1); seed <= n; seed++ {
		checkShared(t, fmt.Sprintf("seed %d", seed), sim.GenRefCase(seed), machines)
	}
}

// checkShared runs c on a machine with its own Code, then on k machines at
// once over one shared Code, and requires every one of them to observe
// what the first did, as goldenRun records it.
func checkShared(t *testing.T, key string, c sim.RefCase, k int) {
	t.Helper()
	run := func(m *sim.Machine) goldenEntry {
		if c.MaxSteps != 0 {
			m.MaxSteps = c.MaxSteps
		}
		return goldenRun(key, m, c.Meter, c.Reqs)
	}
	want := run(sim.New(c.Prog, c.Cost, c.PMU))
	code := sim.Decode(c.Prog, c.Cost)
	got := make([]goldenEntry, k)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := code.New(c.PMU)
			<-start
			got[i] = run(m)
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: machine %d of %d over one Code:\n got  %+v\n want %+v", key, i, k, g, want)
		}
	}
}
