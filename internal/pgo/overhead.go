package pgo

import (
	"time"

	"csspgo/internal/machine"
	"csspgo/internal/overhead"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// The overhead-observatory harness: a metered collection (collectAndGenerate
// with the simulator's overhead meter attached) runs under the profiling
// cost model, and the tallies become the csspgo-overhead/v1 ledger plus a
// confidence-scored profile. One metered run is enough — the attributed cycles are included in the run's total,
// so overhead% is attributed/(total-attributed) with no second baseline
// run.

// MeasureOverhead runs one metered collection on bin and assembles the full
// observatory report: the cost ledger, the generated profile (CS when the
// binary carries probe metadata and stacks are on, flat otherwise — the PMU
// samples as pc says either way, so the ledger prices the configuration it
// was handed), and the confidence heatmap scored against that profile. The
// returned report's CollectWallNS is live; Normalize before byte-comparing
// artifacts.
func MeasureOverhead(bin *machine.Prog, requests [][]int64, pc ProfileConfig) (*overhead.Report, *profdata.Profile, error) {
	start := time.Now()
	variant := AutoFDO
	if len(bin.Probes) > 0 && pc.Stacks {
		variant = FullCS
	}
	meter := sim.NewOverheadMeter()
	prof, _, stats, err := collectAndGenerate(bin, variant, requests, pc, sim.ProfilingCostParams(), meter)
	if err != nil {
		return nil, nil, err
	}
	rep := overhead.Attribute(bin, stats, meter, pc.Period)
	rep.Confidence = overhead.Score(bin, prof, pc.Period)
	rep.CollectWallNS = time.Since(start).Nanoseconds()
	return rep, prof, nil
}
