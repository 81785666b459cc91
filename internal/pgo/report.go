package pgo

import "csspgo/internal/obs"

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
	}
	if cfg.VerifyEach {
		out["verify_each"] = true
	}
	return out
}
