package experiments

import (
	"fmt"
	"strings"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
	"csspgo/internal/workloads"
)

// overheadSweepPeriods is the sampling-period axis of the Pareto sweep,
// densest first: the densest period is the quality reference the other
// points' context overlap is measured against.
func overheadSweepPeriods() []uint64 { return []uint64{199, 797, 3203, 12799} }

// overheadSweepRow is one point on the overhead/quality Pareto surface:
// one sampling period, aggregated across the Fig. 6 server corpus.
type overheadSweepRow struct {
	Period  uint64
	Samples uint64 // total samples across the corpus
	// OverheadPct is aggregate profiling overhead: summed attributed
	// cycles over summed application cycles.
	OverheadPct float64
	// ContextOverlap is the mean context overlap against the profile
	// collected at the densest period (1.0 there by construction).
	ContextOverlap float64
	// HotConfident / HotUncertain aggregate the confidence classes across
	// the corpus at this period.
	HotConfident int
	HotUncertain int
}

// overheadSweepResult is the Pareto sweep over sampling periods.
type overheadSweepResult struct {
	Workloads []string
	Rows      []overheadSweepRow
}

// String renders the Pareto table.
func (r *overheadSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overhead/quality Pareto sweep (%s)\n", strings.Join(r.Workloads, ", "))
	fmt.Fprintf(&b, "%8s %10s %12s %16s %8s %8s\n",
		"period", "samples", "overhead%", "context overlap", "hot-ok", "hot-unc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %10d %11.3f%% %16.4f %8d %8d\n",
			row.Period, row.Samples, row.OverheadPct, row.ContextOverlap,
			row.HotConfident, row.HotUncertain)
	}
	return b.String()
}

// Gauges publishes every period's point on the curve.
func (r *overheadSweepResult) Gauges() map[string]float64 {
	g := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("p%d", row.Period)
		g[p+".overhead_pct"] = row.OverheadPct
		g[p+".context_overlap"] = row.ContextOverlap
		g[p+".samples"] = float64(row.Samples)
	}
	return g
}

// runOverheadSweep sweeps the sampling period over the Fig. 6 server corpus
// under the profiling cost model and traces the overhead-vs-quality curve:
// denser sampling costs more interrupt cycles and buys higher context
// overlap against the densest-period reference profile.
func runOverheadSweep(scale int) (*overheadSweepResult, error) {
	names := workloads.ServerNames()
	periods := overheadSweepPeriods()
	type wl struct {
		train [][]int64
		bin   *machine.Prog
	}
	var corpus []wl
	for _, name := range names {
		w, err := workloads.Load(name, scale)
		if err != nil {
			return nil, err
		}
		built, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return nil, fmt.Errorf("overheadsweep: build %s: %w", name, err)
		}
		corpus = append(corpus, wl{train: w.Train, bin: built.Bin})
	}

	res := &overheadSweepResult{Workloads: names}
	// refs[i] is workload i's profile at the densest (first) period.
	refs := make([]*profdata.Profile, len(corpus))
	for pi, period := range periods {
		pc := pgo.DefaultProfileConfig()
		pc.Period = period
		row := overheadSweepRow{Period: period}
		var appCycles, ohCycles uint64
		var overlapSum float64
		for wi := range corpus {
			rep, prof, err := pgo.MeasureOverhead(corpus[wi].bin, corpus[wi].train, pc)
			if err != nil {
				return nil, fmt.Errorf("overheadsweep: %s @ %d: %w", names[wi], period, err)
			}
			appCycles += rep.Totals.AppCycles
			ohCycles += rep.Totals.OverheadCycles
			row.Samples += rep.Totals.Samples
			if c := rep.Confidence; c != nil {
				row.HotConfident += c.HotConfident
				row.HotUncertain += c.HotUncertain
			}
			if pi == 0 {
				refs[wi] = prof
				overlapSum += 1
			} else {
				overlapSum += quality.DiffProfiles(refs[wi], prof).ContextOverlap
			}
		}
		if appCycles > 0 {
			row.OverheadPct = 100 * float64(ohCycles) / float64(appCycles)
		}
		row.ContextOverlap = overlapSum / float64(len(corpus))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
