// Package experiments is the evaluation that sits on top of the pipeline:
// every table and figure of the paper (§IV), the in-text experiments (§III),
// the ablations and the robustness matrices (source drift, profile
// corruption, fleet faults, sampling overhead). Each experiment is a
// Run<Name>(scale) returning typed rows that render as a table; All is the
// one listing of them. The package imports pgo and drives it as any other
// client would; pgo never imports it.
package experiments

import "fmt"

// Experiment is one named, runnable experiment. What Run returns renders
// the experiment's table; a result with headline numbers also has a
// Gauges() map[string]float64, read through Gauges below.
type Experiment struct {
	Name string
	Run  func(scale int) (fmt.Stringer, error)
}

func experiment[R fmt.Stringer](name string, run func(int) (R, error)) Experiment {
	return Experiment{name, func(scale int) (fmt.Stringer, error) { return run(scale) }}
}

// All lists every experiment in the order `experiments -run all` runs them.
func All() []Experiment {
	return []Experiment{
		experiment("fig6", RunFig6),
		experiment("fig7", RunFig7),
		experiment("fig8", RunFig8),
		experiment("fig9", RunFig9),
		experiment("table1", RunTable1),
		experiment("client", RunClient),
		experiment("drift", RunDrift),
		experiment("trim", RunTrim),
		experiment("tailcall", RunTailCall),
		experiment("ablation-preinliner", RunAblationPreInliner),
		experiment("ablation-pebs", RunAblationPEBS),
		experiment("ablation-inference", RunAblationInference),
		experiment("ablation-barrier", RunAblationBarrier),
		experiment("ablation-lbrdepth", RunAblationLBRDepth),
		experiment("valueprofile", RunValueProfile),
		experiment("ablation-icp", RunAblationICP),
		experiment("driftmatrix", RunDriftMatrix),
		experiment("corruption", RunCorruptionMatrix),
		experiment("fleetfaults", RunFleetFaults),
		experiment("overheadsweep", RunOverheadSweep),
	}
}

// Gauges returns the headline numbers of an experiment's result under the
// metric names a run manifest carries them by, experiment.<name>.<key>;
// nil for a result that publishes none.
func Gauges(name string, res fmt.Stringer) map[string]float64 {
	g, ok := res.(interface{ Gauges() map[string]float64 })
	if !ok {
		return nil
	}
	out := map[string]float64{}
	for key, v := range g.Gauges() {
		out["experiment."+name+"."+key] = v
	}
	return out
}
