package pgo

import (
	"fmt"
	"strings"

	"csspgo/internal/obs"
)

// RunObserver bundles one run's trace and metric registry and assembles the
// machine-readable run manifest at the end — the glue `csspgo build
// -trace/-report` and `cmd/experiments -report` use.
type RunObserver struct {
	Trace   *obs.Trace
	Metrics *obs.Registry
}

// NewRunObserver returns an observer with a live trace and registry.
func NewRunObserver() *RunObserver {
	return &RunObserver{Trace: obs.NewTrace(), Metrics: obs.NewRegistry()}
}

// ObserveBuild wires the observer into a build config.
func (o *RunObserver) ObserveBuild(cfg *BuildConfig) {
	cfg.Trace = o.Trace
	cfg.Metrics = o.Metrics
}

// ObserveProfile wires the observer into a profile-collection config.
func (o *RunObserver) ObserveProfile(pc *ProfileConfig) {
	pc.Trace = o.Trace
	pc.Metrics = o.Metrics
}

// Report assembles the run manifest: the given config echo, the stage table
// aggregated from the trace, and every published metric.
func (o *RunObserver) Report(tool string, config map[string]any) *obs.Report {
	rep := obs.NewReport(tool)
	for k, v := range config {
		rep.Config[k] = v
	}
	rep.AddTrace(o.Trace)
	rep.AddMetrics(o.Metrics)
	return rep
}

// PublishExperiment projects an experiment result's headline numbers into
// the registry as experiment.<name>.* gauges, so `cmd/experiments -report`
// manifests (and the BENCH trajectory) are diffable with `csspgo report`.
// Results without a projection are recorded only by their stage timing.
func PublishExperiment(reg *obs.Registry, name string, res any) {
	if reg == nil {
		return
	}
	gauge := func(parts string, v float64) {
		reg.Gauge("experiment." + name + "." + parts).Set(v)
	}
	switch r := res.(type) {
	case *Fig6Result:
		for _, row := range r.Rows {
			gauge(row.Workload+".probeonly_impr_pct", row.ProbeOnlyImpr)
			gauge(row.Workload+".csspgo_impr_pct", row.FullCSImpr)
		}
	case *Fig7Result:
		for _, row := range r.Rows {
			gauge(row.Workload+".csspgo_sizerel", row.FullCSRel)
		}
	case *Fig8Result:
		for _, row := range r.Rows {
			gauge(row.Workload+".probe_overhead_pct", row.ProbeOverheadPct)
		}
	case *Fig9Result:
		for _, row := range r.Rows {
			gauge(row.Workload+".probemeta_share_pct", row.ProbeSharePct)
		}
	case *Table1Result:
		gauge("overlap_autofdo", r.OverlapAutoFDO)
		gauge("overlap_csspgo", r.OverlapCSSPGO)
		gauge("overhead_instr_pct", r.OverheadInstrPct)
	case *ClientResult:
		gauge("csspgo_impr_pct", r.CSSPGOImpr)
		gauge("instr_impr_pct", r.InstrImpr)
	case *OverheadSweepResult:
		for _, row := range r.Rows {
			p := fmt.Sprintf("p%d", row.Period)
			gauge(p+".overhead_pct", row.OverheadPct)
			gauge(p+".context_overlap", row.ContextOverlap)
			gauge(p+".samples", float64(row.Samples))
		}
	case *FleetFaultsResult:
		for _, c := range r.Cells {
			// Fault names use '-', the metric grammar wants '_'.
			key := strings.ReplaceAll(c.Fault.String(), "-", "_")
			gauge(key+".overlap", c.Overlap)
			gauge(key+".healthy_sources", float64(c.Healthy))
		}
		gauge("overlap_bound", r.Bound)
		gauge("poison_overlap", r.PoisonOverlap)
	}
}

// BuildConfigEcho renders the parts of a build config that belong in a run
// manifest (the deterministic inputs, not the runtime sinks).
func BuildConfigEcho(cfg BuildConfig) map[string]any {
	out := map[string]any{
		"probes":     cfg.Probes,
		"instrument": cfg.Instrument,
		"profile":    cfg.Profile != nil,
		"preinline":  cfg.UsePreInlineDecisions,
	}
	if cfg.StaleMatching {
		out["stale_matching"] = true
		out["min_match_quality"] = fmt.Sprintf("%g", cfg.MinMatchQuality)
	}
	if cfg.VerifyEach {
		out["verify_each"] = true
	}
	return out
}
