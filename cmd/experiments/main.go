// Command experiments regenerates the paper's evaluation: every table and
// figure (Fig. 6-9, Table I, the §IV.D client workload) plus the in-text
// experiments (§III.A source drift, §III.B profile trimming and tail-call
// frame recovery).
//
// Usage:
//
//	experiments [-run all|fig6|fig7|fig8|fig9|table1|client|drift|trim|tailcall|driftmatrix|corruption|fleetfaults|overheadsweep] [-scale N] [-report bench.json]
//
// -report writes a run manifest with each experiment's headline numbers as
// experiment.<name>.* gauges and its wall time in the stage table, for
// `csspgo report` to print, diff or validate. (`make bench` does not run
// this command: the repository's benchmark is bench/, see BENCHMARK.json.)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"csspgo/internal/pgo"
)

func main() {
	runSel := flag.String("run", "all", "comma-separated experiments to run")
	scale := flag.Int("scale", 2, "request-stream scale factor")
	reportPath := flag.String("report", "", "write a machine-readable run manifest (JSON)")
	flag.Parse()

	want := map[string]bool{}
	for _, s := range strings.Split(*runSel, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]

	type experiment struct {
		name string
		run  func(int) (fmt.Stringer, error)
	}
	experiments := []experiment{
		{"fig6", func(s int) (fmt.Stringer, error) { return pgo.RunFig6(s) }},
		{"fig7", func(s int) (fmt.Stringer, error) { return pgo.RunFig7(s) }},
		{"fig8", func(s int) (fmt.Stringer, error) { return pgo.RunFig8(s) }},
		{"fig9", func(s int) (fmt.Stringer, error) { return pgo.RunFig9(s) }},
		{"table1", func(s int) (fmt.Stringer, error) { return pgo.RunTable1(s) }},
		{"client", func(s int) (fmt.Stringer, error) { return pgo.RunClient(s) }},
		{"drift", func(s int) (fmt.Stringer, error) { return pgo.RunDrift(s) }},
		{"trim", func(s int) (fmt.Stringer, error) { return pgo.RunTrim(s) }},
		{"tailcall", func(s int) (fmt.Stringer, error) { return pgo.RunTailCall(s) }},
		{"ablation-preinliner", func(s int) (fmt.Stringer, error) { return pgo.RunAblationPreInliner(s) }},
		{"ablation-pebs", func(s int) (fmt.Stringer, error) { return pgo.RunAblationPEBS(s) }},
		{"ablation-inference", func(s int) (fmt.Stringer, error) { return pgo.RunAblationInference(s) }},
		{"ablation-barrier", func(s int) (fmt.Stringer, error) { return pgo.RunAblationBarrier(s) }},
		{"ablation-lbrdepth", func(s int) (fmt.Stringer, error) { return pgo.RunAblationLBRDepth(s) }},
		{"valueprofile", func(s int) (fmt.Stringer, error) { return pgo.RunValueProfile(s) }},
		{"ablation-icp", func(s int) (fmt.Stringer, error) { return pgo.RunAblationICP(s) }},
		{"driftmatrix", func(s int) (fmt.Stringer, error) { return pgo.RunDriftMatrix(s) }},
		{"corruption", func(s int) (fmt.Stringer, error) { return pgo.RunCorruptionMatrix(s) }},
		{"fleetfaults", func(s int) (fmt.Stringer, error) { return pgo.RunFleetFaults(s) }},
		{"overheadsweep", func(s int) (fmt.Stringer, error) { return pgo.RunOverheadSweep(s) }},
	}

	obsrv := pgo.NewRunObserver()
	ran := 0
	for _, e := range experiments {
		if !all && !want[e.name] {
			continue
		}
		sp := obsrv.Trace.Span("experiment." + e.name)
		res, err := e.run(*scale)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		pgo.PublishExperiment(obsrv.Metrics, e.name, res)
		fmt.Println(res)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing selected by -run=%s\n", *runSel)
		os.Exit(2)
	}
	if *reportPath != "" {
		rep := obsrv.Report("experiments", map[string]any{"run": *runSel, "scale": *scale})
		if err := rep.WriteFile(*reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote report %s\n", *reportPath)
	}
}
