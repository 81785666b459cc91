// Overhead tuning: pseudo-instrumentation as a *flexible framework*
// (§III.A). The probe barrier strength is the knob: BarrierWeak is the
// production tuning (if-convert and friends unblocked — near-zero run-time
// cost, a sliver of profile accuracy given up); BarrierStrong makes probes
// behave like traditional instrumentation barriers (control-flow merges
// blocked — better preserved control flow, real run-time cost). This
// example measures both ends against a probe-free build, plus full counter
// instrumentation for scale.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"csspgo/internal/codegen"
	"csspgo/internal/irgen"
	"csspgo/internal/opt"
	"csspgo/internal/probe"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// The MiniLang module lives in its own file so `csspgo lint` (and the other
// CLI subcommands) can consume it directly.
//
//go:embed app.ml
var app string

func build(barrier opt.BarrierStrength, probes, counters bool) *sim.Machine {
	f, err := source.Parse("app.ml", app)
	if err != nil {
		log.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		log.Fatal(err)
	}
	if probes {
		probe.InsertProgram(p)
	}
	if _, err := opt.Optimize(p, &opt.Config{Barrier: barrier}); err != nil {
		log.Fatal(err)
	}
	bin, err := codegen.Lower(p, codegen.Options{Instrument: counters})
	if err != nil {
		log.Fatal(err)
	}
	return sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
}

func main() {
	reqs := make([][]int64, 80)
	for i := range reqs {
		reqs[i] = []int64{int64(i * 17), 0}
	}
	run := func(m *sim.Machine) uint64 {
		for _, r := range reqs {
			if _, err := m.Run(r...); err != nil {
				log.Fatal(err)
			}
		}
		return m.Stats().Cycles
	}

	baseline := run(build(opt.BarrierNone, false, false))
	weak := run(build(opt.BarrierWeak, true, false))
	strong := run(build(opt.BarrierStrong, true, false))
	instr := run(build(opt.BarrierStrong, true, true))

	pct := func(x uint64) float64 {
		return 100 * (float64(x) - float64(baseline)) / float64(baseline)
	}
	fmt.Printf("%-34s %12s %10s\n", "configuration", "cycles", "overhead")
	fmt.Printf("%-34s %12d %9s\n", "no probes (-O2)", baseline, "—")
	fmt.Printf("%-34s %12d %+9.2f%%\n", "pseudo-probes, weak barrier", weak, pct(weak))
	fmt.Printf("%-34s %12d %+9.2f%%\n", "pseudo-probes, strong barrier", strong, pct(strong))
	fmt.Printf("%-34s %12d %+9.2f%%\n", "counter instrumentation", instr, pct(instr))
	fmt.Println()
	fmt.Println("weak barrier = the paper's production point: probes cost ~nothing because")
	fmt.Println("if-convert and similar critical optimizations were tuned to ignore them;")
	fmt.Println("strong barrier buys instrumentation-grade control-flow preservation at a")
	fmt.Println("real run-time price, and counters add the classic 60-80% on top.")
}
