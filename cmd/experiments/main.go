// Command experiments regenerates the paper's evaluation: every table and
// figure (Fig. 6-9, Table I, the §IV.D client workload) plus the in-text
// experiments (§III.A source drift, §III.B profile trimming and tail-call
// frame recovery).
//
// Usage:
//
//	experiments [-run all|NAME[,NAME...]] [-scale N] [-report bench.json]
//
// The names are those of experiments.All, in the order -run all runs them;
// -h lists them.
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

	"csspgo/internal/experiments"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
)

func main() {
	all := experiments.All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	runSel := flag.String("run", "all", "comma-separated experiments to run: all|"+strings.Join(names, "|"))
	scale := flag.Int("scale", 2, "request-stream scale factor")
	reportPath := flag.String("report", "", "write a machine-readable run manifest (JSON)")
	flag.Parse()

	want := map[string]bool{}
	for _, s := range strings.Split(*runSel, ",") {
		want[strings.TrimSpace(s)] = true
	}

	obsrv := pgo.NewRunObserver()
	ran := 0
	for _, e := range all {
		if !want["all"] && !want[e.Name] {
			continue
		}
		sp := obsrv.Trace.Span("experiment." + e.Name)
		res, err := e.Run(*scale)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		for name, v := range experiments.Gauges(e.Name, res) {
			obsrv.Metrics.Gauge(name).Set(v)
		}
		fmt.Println(res)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing selected by -run=%s\n", *runSel)
		os.Exit(2)
	}
	if *reportPath != "" {
		rep := obsrv.Report("experiments", map[string]any{"run": *runSel, "scale": *scale})
		if err := obs.WriteFile(*reportPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote report %s\n", *reportPath)
	}
}
