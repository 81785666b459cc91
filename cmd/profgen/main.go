// Command profgen converts a profiling run into a PGO profile — the
// counterpart of create_llvm_prof / llvm-profgen. It loads a training
// binary, replays a request stream under the simulated PMU (or reads
// instrumentation counters), and writes the text profile.
//
// Usage:
//
//	profgen -bin app.bin -o app.prof -kind cs|probe|autofdo|instr [-n 200] [-seed 1] [-bound 1000] [-period 797] [-pebs=true] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
)

func main() {
	binPath := flag.String("bin", "app.bin", "training binary path")
	out := flag.String("o", "app.prof", "output profile path")
	var gc genConfig
	flag.StringVar(&gc.kind, "kind", "cs", "profile kind: cs|probe|autofdo|instr")
	flag.IntVar(&gc.n, "n", 200, "training request count")
	flag.Int64Var(&gc.seed, "seed", 1, "request generator seed")
	flag.Int64Var(&gc.bound, "bound", 1000, "request magnitude bound")
	flag.Uint64Var(&gc.period, "period", 797, "sampling period (taken branches)")
	flag.BoolVar(&gc.pebs, "pebs", true, "precise sampling (synchronized stacks)")
	flag.BoolVar(&gc.noTails, "no-tailcall-inference", false, "disable the missing-frame inferrer")
	flag.BoolVar(&gc.binaryOut, "binary", false, "write the compact binary profile format")
	flag.IntVar(&gc.workers, "workers", 0, "profile-generation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	if err := run(*binPath, *out, gc); err != nil {
		fmt.Fprintf(os.Stderr, "profgen: %v\n", err)
		os.Exit(1)
	}
}

type genConfig struct {
	kind          string
	n             int
	seed, bound   int64
	period        uint64
	pebs, noTails bool
	binaryOut     bool
	workers       int
}

func run(binPath, out string, gc genConfig) error {
	if err := sampling.ValidateWorkers(gc.workers); err != nil {
		return err
	}
	variant, err := pgo.ParseProfileKind(gc.kind)
	if err != nil {
		return err
	}
	f, err := os.Open(binPath)
	if err != nil {
		return err
	}
	bin, err := machine.ReadProg(f)
	f.Close()
	if err != nil {
		return err
	}

	reqs := pgo.SeededRequests(gc.n, gc.seed, gc.bound)
	pc := pgo.DefaultProfileConfig()
	pc.Period, pc.PEBS, pc.Workers = gc.period, gc.pebs, gc.workers

	var prof *profdata.Profile
	var stats sampling.UnwindStats
	if gc.noTails && variant == pgo.FullCS {
		// The inferrer ablation, shaped like `experiments -run tailcall`:
		// materialize the samples, generate with the inferrer off.
		samples, _, err := pgo.CollectSamples(bin, reqs, pc)
		if err != nil {
			return err
		}
		opts := sampling.DefaultCSSPGOOptions()
		opts.TailCallInference = false
		opts.Workers = gc.workers
		prof, stats = sampling.GenerateCSSPGO(bin, samples, opts)
	} else if prof, stats, _, err = pgo.CollectAndGenerate(bin, variant, reqs, pc); err != nil {
		return err
	}
	if variant == pgo.FullCS {
		fmt.Println(stats.Summary())
	}

	var data []byte
	if gc.binaryOut {
		data = profdata.EncodeBinary(prof)
	} else {
		data = []byte(profdata.EncodeToString(prof))
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s (%d bytes)\n", out, prof, len(data))
	return nil
}
