// Command bench is the repository's benchmark: five seeded, self-checking
// workloads over the whole toolchain, a handful of end-to-end metrics
// measured with tracing off, and per-layer rows from a separate traced run.
// See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench -seed 1                          every workload, end to end
//	go run ./bench -seed 1 -trace 1                 every workload, per layer
//	go run ./bench -workload build-bound -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// options are the settings of one invocation. The last three are for the
// smoke test only and have no flag.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	out      string

	shrink int                      // divides training stream lengths (0 = 1)
	reps   int                      // fixed number of timed reps instead of -seconds
	tamper func(products []product) // corrupts products before the oracle sees them
}

const (
	warmupReps = 2
	// minReps keeps a median meaningful when a rep is long.
	minReps = 5
	// An untraced run sets up at least minSetupRuns times, and up to
	// maxSetupRuns while set-up has taken less than setupBudget in all;
	// setup_s is the median.
	minSetupRuns = 3
	maxSetupRuns = 5
	setupBudget  = 3 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 when every
// checked operation passed, 1 when one failed or the bench could not run,
// 2 when -compare found a row worse than its bound.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line last (default: all five)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; 1 and 2 also check the golden digests")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed reps of one workload run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace JSON to this file (one workload)")
	fs.StringVar(&o.out, "o", "", "write machine-readable results to this file")
	cmp := fs.Bool("compare", false, "compare two result files: bench -compare base.json other.json")
	update := fs.Bool("update-golden", false, "recompute bench/testdata/golden.json (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int { return failWith(stderr, err) }
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 2
		}
		return 0
	case *update:
		if err := updateGolden("bench"); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	o.traced = *trace != 0
	return runWith(o, stdout, stderr)
}

// failWith reports why the bench could not do what it was asked.
func failWith(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

// runWith measures the workloads the options select and prints the results.
func runWith(o options, stdout, stderr io.Writer) int {
	fail := func(err error) int { return failWith(stderr, err) }
	defs := workloadDefs
	if o.workload != "" {
		def := findWorkload(o.workload)
		if def == nil {
			return fail(fmt.Errorf("unknown workload %q", o.workload))
		}
		defs = []workloadDef{*def}
	}
	if o.traceOut != "" && (!o.traced || len(defs) != 1) {
		return fail(fmt.Errorf("-trace-out needs -trace 1 and -workload"))
	}

	g, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	// The hand-written anchors come first: if irgen, codegen or sim changed
	// semantics, no number measured after this point means anything.
	anchors := &check{}
	if err := checkAnchors(anchors); err != nil {
		return fail(err)
	}
	if anchors.failed > 0 {
		for _, f := range anchors.failures {
			fmt.Fprintln(stderr, "bench: FAILED:", f)
		}
		return fail(fmt.Errorf("hand-written anchors: %d of %d results wrong", anchors.failed, anchors.attempted))
	}

	var runs []*runResult
	failed := 0
	for _, def := range defs {
		res, err := measure(def, o, g)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", def.name, err))
		}
		res.Attempted += anchors.attempted
		res.print(stdout)
		failed += res.Failed
		runs = append(runs, res)
	}
	if o.out != "" {
		if err := writeResults(o.out, runs); err != nil {
			return fail(err)
		}
	}
	if o.workload != "" {
		fmt.Fprintln(stdout, runs[0].contractLine())
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload once: set-up, warm-up, the timed reps, and the
// checks on what they produced.
func measure(def workloadDef, o options, g golden) (*runResult, error) {
	p := params{seed: o.seed, shrink: o.shrink}
	chk := &check{}
	var tr *tracer
	if o.traced {
		tr = newTracer(def.name)
	}
	warmups := warmupReps
	if o.reps > 0 {
		warmups = 1
	}

	// Set up several times and keep the last: setup_s is the median, so
	// that one slow start does not read as work moved into set-up. Only the
	// set-up that is kept is traced and has its checks counted; the traced
	// run and the smoke test, which report no setup_s, set up once.
	var inst instance
	var setupCPU, setupWall []float64
	for began := time.Now(); inst == nil; {
		n := len(setupCPU) + 1
		last := o.traced || o.reps > 0 || n == maxSetupRuns || (n >= minSetupRuns && time.Since(began) >= setupBudget)
		c, t := &check{}, (*tracer)(nil)
		if last {
			c, t = chk, tr
		}
		// Collect first, so that the garbage of the previous set-up is not
		// charged to this one.
		runtime.GC()
		sw := startStopwatch()
		in, err := def.setup(p, t, g, c)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall, cpu := sw.stop()
		setupWall, setupCPU = append(setupWall, wall), append(setupCPU, cpu)
		if !last {
			in.close()
			continue
		}
		inst = in
	}
	defer inst.close()

	for i := 0; i < warmups; i++ {
		inst.rep(nil, chk)
	}
	first := evaluate(inst.products(chk), chk, nil)

	// The timed reps. A traced run alternates an untraced and a traced rep,
	// so that the two medians it compares saw the same machine.
	var plain, plainCPU, traced []float64
	runtime.GC()
	before := readMemCount()
	var allocated uint64
	start := time.Now()
	for n := 0; ; n++ {
		if o.reps > 0 {
			if n >= o.reps {
				break
			}
		} else if n >= minReps && time.Since(start).Seconds() >= o.seconds {
			break
		}
		sw := startStopwatch()
		inst.rep(nil, chk)
		wall, cpu := sw.stop()
		plain, plainCPU = append(plain, wall), append(plainCPU, cpu)
		if tr != nil {
			tr.setRep(n)
			sp := tr.begin("bench.rep", "")
			inst.rep(tr, chk)
			tr.end(sp)
			traced = append(traced, tr.spans[sp].Dur.Seconds())
			if pr, ok := inst.(prober); ok {
				pr.probe(tr, chk)
			}
		}
	}
	if tr == nil {
		allocated = readMemCount().totalAlloc - before.totalAlloc
	}
	tr.setRep(repVerify)

	// What the last rep produced must match the O0 reference request by
	// request, and must be what the first rep produced.
	products := inst.products(chk)
	if o.tamper != nil {
		o.tamper(products)
	}
	last := evaluate(products, chk, tr)
	chk.op(last.cyclesPerReq == first.cyclesPerReq && last.codeSize == first.codeSize,
		"exact rows differ between reps: %v cycles/req and %d instrs, then %v and %d",
		first.cyclesPerReq, first.codeSize, last.cyclesPerReq, last.codeSize)
	inst.verify(tr, chk)

	res := &runResult{Workload: def.name, Seed: o.seed, Traced: o.traced, Golden: "checked"}
	if chk.goldenSkipped > 0 {
		res.Golden = "skipped"
	}
	if tr == nil {
		samples := map[string][]float64{
			"setup_s":             setupCPU,
			"rep_cpu_s":           plainCPU,
			"rep_alloc_mb":        {float64(allocated) / float64(len(plain)) / 1e6},
			"eval_cycles_per_req": {last.cyclesPerReq},
			"code_size_instrs":    {float64(last.codeSize)},
		}
		for _, spec := range endToEnd {
			res.Rows = append(res.Rows, newRow(spec, "end_to_end", samples[spec.Name]))
		}
		// Wall-clock time is printed and written to -o, but it is not a
		// metric of BENCHMARK.json: see metrics.go.
		res.Rows = append(res.Rows,
			newRow(metricSpec{Name: "setup_wall_s", Unit: "s", Better: "lower"}, "info", setupWall),
			newRow(metricSpec{Name: "rep_wall_s", Unit: "s", Better: "lower"}, "info", plain))
	} else {
		extras := map[string]float64{
			"obs.trace_overhead_pct": 100 * (median(traced) - median(plain)) / median(plain),
		}
		if w, ok := inst.(*pipelineInst); ok {
			variantExtras(w.programs, chk, extras)
			extras["probe.overhead_pct"] = probeOverhead(w.programs, chk)
		}
		agg := tr.aggregate()
		values := layerMetrics(agg, inst.counts(), last.instructions, extras)
		for _, spec := range perLayer {
			r := newRow(spec, "per_layer", []float64{values[spec.Name]})
			r.N = len(traced) // time rows are medians over this many traced reps
			res.Rows = append(res.Rows, r)
		}
		res.Shares = agg.layerShares()
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, tr); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed, res.Failures = chk.attempted, chk.failed, chk.failures
	return res, nil
}

// stopwatch times a stretch of the run on two clocks.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startStopwatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuSeconds()} }

// stop returns the wall-clock and the CPU seconds since the start.
func (s stopwatch) stop() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), cpuSeconds() - s.cpu
}

// cpuSeconds is the CPU time, user and system, of every thread of this
// process so far. The kernel keeps it off the scheduler clock, to the
// nanosecond, and does not charge it for time the hypervisor gave to
// another guest.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only an invalid argument can fail
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

func writeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
