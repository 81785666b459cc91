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
		experiment("fig6", runFig6),
		experiment("fig7", runFig7),
		experiment("fig8", runFig8),
		experiment("fig9", runFig9),
		experiment("table1", runTable1),
		experiment("client", runClient),
		experiment("drift", runDrift),
		experiment("trim", runTrim),
		experiment("tailcall", runTailCall),
		experiment("ablation-preinliner", runAblationPreInliner),
		experiment("ablation-pebs", runAblationPEBS),
		experiment("ablation-inference", runAblationInference),
		experiment("ablation-barrier", runAblationBarrier),
		experiment("ablation-lbrdepth", runAblationLBRDepth),
		experiment("valueprofile", runValueProfile),
		experiment("ablation-icp", runAblationICP),
		experiment("driftmatrix", driftMatrix),
		experiment("corruption", corruptionMatrix),
		experiment("fleetfaults", fleetFaults),
		experiment("overheadsweep", runOverheadSweep),
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
