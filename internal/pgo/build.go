// Package pgo assembles the end-to-end PGO variants the paper evaluates —
// a plain -O2 baseline, AutoFDO (debug-info sampling PGO), probe-only
// CSSPGO (pseudo-instrumentation without context sensitivity), full CSSPGO
// (pseudo-instrumentation + context-sensitive profiling + pre-inliner) and
// traditional instrumentation-based PGO — and the train → profile →
// re-optimize → evaluate workflow connecting them. It is the compiler
// driver and nothing else: build (Build, Pipeline), collect
// (CollectAndGenerate, CollectSamples, TrimAndPreInline, MeasureOverhead,
// the serve refresher) and evaluate (Evaluate). What is measured with it —
// the paper's tables, the ablations, the fault matrices — is
// internal/experiments, which imports this package; this package imports
// neither it nor the daemons, fault injectors and workloads it uses.
package pgo

import (
	"fmt"

	"csspgo/internal/analysis/tv"
	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/opt"
	"csspgo/internal/preinline"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// Variant names a PGO flavour.
type Variant string

// The PGO variants under study.
const (
	Baseline  Variant = "baseline"  // -O2, no profile
	AutoFDO   Variant = "autofdo"   // sampling PGO, debug-info correlation
	ProbeOnly Variant = "probeonly" // CSSPGO with pseudo-probes only
	FullCS    Variant = "csspgo"    // CSSPGO with context sensitivity + pre-inliner
	InstrPGO  Variant = "instr"     // traditional instrumentation PGO
)

// ParseProfileKind maps the command-line spelling of a profile kind (the
// -kind flag of `csspgo profile`) to the variant that consumes
// it, so a typo is rejected before any training run starts.
func ParseProfileKind(kind string) (Variant, error) {
	switch kind {
	case "cs":
		return FullCS, nil
	case "probe":
		return ProbeOnly, nil
	case "autofdo":
		return AutoFDO, nil
	case "instr":
		return InstrPGO, nil
	}
	return "", fmt.Errorf("unknown profile kind %q (want cs|probe|autofdo|instr)", kind)
}

// BuildConfig controls one compilation.
type BuildConfig struct {
	Probes     bool // insert pseudo-probes
	Instrument bool // materialize probes as counters (training Instr PGO)
	Profile    *profdata.Profile
	// UsePreInlineDecisions honors ShouldInline bits in a CS profile.
	UsePreInlineDecisions bool
	// CSHotContextThreshold drives compile-time context retention when no
	// pre-inline decisions exist.
	CSHotContextThreshold uint64
	// DisableInference turns off MCF profile inference (ablations; the
	// drift experiment uses it to isolate raw correlation quality).
	DisableInference bool
	// DisableICP turns off indirect-call promotion (ablations).
	DisableICP bool
	// VerifyEach enables the checked pipeline mode: after every optimization
	// pass, the structural verifier and the analysis suite run and the first
	// violation aborts the build with an *opt.PassViolation attributing the
	// offending pass.
	VerifyEach bool
	// ValidateSemantics enables the translation-validation tier on top of
	// checked mode: every pass boundary (probe insertion included) must prove
	// before/after IR semantically equivalent, or the build aborts with an
	// *opt.PassViolation attributing the pass.
	ValidateSemantics bool
	// InjectAfter mutates the program right after the named pass — the
	// miscompile-injection harness. Nil in production builds.
	InjectAfter map[string]func(*ir.Program)
	// StaleMatching enables anchor-based stale-profile matching: stale
	// function profiles degrade down the ladder (anchor-matched, then flat
	// fallback) instead of being dropped.
	StaleMatching bool
	// Trace receives the build's span tree (irgen → probes → per-opt-pass →
	// codegen). Nil = no tracing.
	Trace *obs.Trace
	// Metrics receives every stage's metric publication. Nil = none.
	Metrics *obs.Registry
}

// BuildResult bundles a compilation's artifacts.
type BuildResult struct {
	Bin     *machine.Prog
	IR      *ir.Program // post-optimization IR
	FreshIR *ir.Program // pre-optimization (probed) IR snapshot, for quality metrics
	Stats   *opt.Stats
}

// Build parses nothing — it consumes already-parsed files — lowers them,
// optionally inserts probes, optimizes per the config and emits a binary:
// lower, then snapshot the lowered program as FreshIR, then compile.
func Build(files []*source.File, cfg BuildConfig) (*BuildResult, error) {
	bsp := cfg.Trace.Span("build", obs.A("files", len(files)))
	defer bsp.End()
	prog, err := lower(files, cfg, bsp)
	if err != nil {
		return nil, err
	}
	return compile(prog, ir.CloneProgram(prog), cfg, bsp)
}

// lower is the front half of a build: irgen, then, with cfg.Probes, probe
// insertion, validated like any pass boundary under ValidateSemantics. Of
// the config it reads only Probes and ValidateSemantics, so one lowering
// serves every build of the same source with the same probes.
func lower(files []*source.File, cfg BuildConfig, bsp *obs.Span) (*ir.Program, error) {
	sp := bsp.Span("irgen")
	prog, err := irgen.Lower(files...)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("pgo: lower: %w", err)
	}
	if !cfg.Probes {
		return prog, nil
	}
	var preProbe *ir.Program
	if cfg.ValidateSemantics {
		preProbe = ir.CloneProgram(prog)
	}
	sp = bsp.Span("probe_insert")
	probe.InsertProgram(prog)
	sp.End()
	// Probe insertion must be semantically invisible: validate it like
	// any other structural pass boundary.
	if preProbe != nil {
		vv := tv.NewValidator(preProbe)
		if diags := vv.ValidatePass("probe-insert", prog, tv.ModeStructural); len(diags) > 0 {
			return nil, fmt.Errorf("pgo: optimize: %w", opt.NewPassViolation("probe-insert", prog, diags, vv.BaselineIR))
		}
	}
	return prog, nil
}

// compile is the back half of a build: it optimizes prog in place per cfg
// and emits the binary. fresh is the result's FreshIR; nil for a build
// whose IR nothing reads.
func compile(prog, fresh *ir.Program, cfg BuildConfig, bsp *obs.Span) (*BuildResult, error) {
	barrier := opt.BarrierNone
	switch {
	case cfg.Instrument:
		barrier = opt.BarrierStrong
	case cfg.Probes:
		barrier = opt.BarrierWeak
	}
	osp := bsp.Span("optimize")
	stats, err := opt.Optimize(prog, &opt.Config{
		Profile:               cfg.Profile,
		UsePreInlineDecisions: cfg.UsePreInlineDecisions,
		Barrier:               barrier,
		DisableInference:      cfg.DisableInference,
		DisableICP:            cfg.DisableICP,
		CSHotContextThreshold: cfg.CSHotContextThreshold,
		StaleMatching:         cfg.StaleMatching,
		VerifyEach:            cfg.VerifyEach,
		ValidateSemantics:     cfg.ValidateSemantics,
		Trace:                 osp,
		Metrics:               cfg.Metrics,
		InjectAfter:           cfg.InjectAfter,
	})
	osp.End()
	if err != nil {
		return nil, fmt.Errorf("pgo: optimize: %w", err)
	}
	sp := bsp.Span("codegen")
	bin, err := codegen.Lower(prog, codegen.Options{
		Instrument:     cfg.Instrument,
		StripProbeMeta: !cfg.Probes,
	})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("pgo: codegen: %w", err)
	}
	return &BuildResult{Bin: bin, IR: prog, FreshIR: fresh, Stats: stats}, nil
}

// ProfileConfig controls profile collection on a training binary and the
// generation of profiles from the collected samples.
type ProfileConfig struct {
	Period uint64 // sampling period in retired taken branches
	PEBS   bool
	Stacks bool // synchronized stack sampling (CSSPGO)
	// Workers sizes the profile-generation worker pool (0 = GOMAXPROCS,
	// 1 = serial). Serial and parallel generation produce byte-identical
	// profiles; this only trades wall-clock for cores.
	Workers int
	// Trace receives the collection + generation span tree (sim run, shard
	// workers, unwind, merge). Nil = no tracing.
	Trace *obs.Trace
	// Metrics receives the sim.*, unwind.*, shard.* and profilegen.*
	// metrics. Nil = none.
	Metrics *obs.Registry
}

// DefaultProfileConfig returns production-like sampling settings.
func DefaultProfileConfig() ProfileConfig {
	return ProfileConfig{Period: 797, PEBS: true, Stacks: true}
}

// csspgoOptions derives the CS profile-generation options from a profile
// config (experiment drivers thread their worker count and observability
// sinks through here).
func csspgoOptions(pc ProfileConfig) sampling.CSSPGOOptions {
	opts := sampling.DefaultCSSPGOOptions()
	opts.Workers = pc.Workers
	opts.Trace = pc.Trace.Root()
	opts.Metrics = pc.Metrics
	return opts
}

// flatOptions derives flat profile-generation options the same way.
func flatOptions(pc ProfileConfig) sampling.FlatOptions {
	return sampling.FlatOptions{
		Workers: pc.Workers,
		Trace:   pc.Trace.Root(),
		Metrics: pc.Metrics,
	}
}

// pmuConfig derives the PMU settings every collection path shares: the
// CSSPGO defaults, with PEBS and stack sampling as the config says.
func pmuConfig(pc ProfileConfig) sim.PMUConfig {
	cfg := sim.DefaultPMUConfig(pc.Period)
	cfg.PEBS = pc.PEBS
	cfg.SampleStacks = pc.Stacks
	return cfg
}

// runAll executes every request on m, stopping at the first fault.
func runAll(m *sim.Machine, requests [][]int64) error {
	for _, req := range requests {
		if _, err := m.Run(req...); err != nil {
			return err
		}
	}
	return nil
}

// CollectSamples runs the request stream on the binary under the PMU and
// returns the materialized samples plus execution stats — for callers that
// generate several profiles from one sample set (experiments, ablations).
func CollectSamples(bin *machine.Prog, requests [][]int64, pc ProfileConfig) ([]sim.Sample, sim.Stats, error) {
	sp := pc.Trace.Span("collect_samples", obs.A("requests", len(requests)))
	defer sp.End()
	m := sim.New(bin, sim.DefaultCostParams(), pmuConfig(pc))
	if err := runAll(m, requests); err != nil {
		return nil, sim.Stats{}, err
	}
	stats := m.Stats()
	stats.Publish(pc.Metrics)
	return m.Samples(), stats, nil
}

// CollectAndGenerate is the one collect-and-generate driver: it runs the
// request stream on a training binary with the variant's generator attached
// to the PMU as a sample sink — fixed-size chunks flow to the worker pool as
// the simulation runs, so the sample stream is never materialized — and
// returns the raw profile (untrimmed, no pre-inline decisions), the unwinder
// stats (CS only) and the execution stats. The training build must match
// the variant (probed for ProbeOnly/FullCS, instrumented for InstrPGO,
// probe-less for AutoFDO); Baseline yields a nil profile. The CLIs and the
// public facade generate profiles through here; CollectProfileFor, and so
// pgo.Pipeline, runs the same collection untimed.
func CollectAndGenerate(bin *machine.Prog, variant Variant, requests [][]int64, pc ProfileConfig) (*profdata.Profile, sampling.UnwindStats, sim.Stats, error) {
	return collectAndGenerate(sim.Decode(bin, sim.DefaultCostParams()), variant, requests, sampledAs(variant, pc), nil)
}

// sampledAs is pc as variant samples: flat profiles are built from the LBR
// alone, so their runs take no stack samples.
func sampledAs(variant Variant, pc ProfileConfig) ProfileConfig {
	if variant == AutoFDO || variant == ProbeOnly {
		pc.Stacks = false
	}
	return pc
}

// collectAndGenerate is how a profiled run is executed, and the only place
// in this package that attaches a sink to a PMU. It runs the training
// binary as code, decoded by the caller, samples with pc exactly as given
// and charges the run under code's cost model. Which samples are taken
// does not depend on the cost model (sampling is branch-count-driven), so
// only the returned Stats do: the untimed model (CostParams{}) for a caller
// that drops them, the default one for a caller that reports them, and the
// profiling model (sampling interrupts cost cycles, like real PMIs) with a
// meter, on which every profiling-machinery cycle is tallied.
func collectAndGenerate(code *sim.Code, variant Variant, requests [][]int64, pc ProfileConfig, meter *sim.OverheadMeter) (*profdata.Profile, sampling.UnwindStats, sim.Stats, error) {
	bin := code.Prog
	if variant == Baseline {
		return nil, sampling.UnwindStats{}, sim.Stats{}, nil
	}
	var sink sim.SampleSink
	var finish func(m *sim.Machine) (*profdata.Profile, sampling.UnwindStats)
	sp := pc.Trace.Span("collect_samples", obs.A("requests", len(requests)))
	switch variant {
	case AutoFDO, ProbeOnly:
		st := sampling.NewFlatStream(bin, flatOptions(pc))
		sink = st
		finish = func(*sim.Machine) (*profdata.Profile, sampling.UnwindStats) {
			if variant == AutoFDO {
				return st.FinishAutoFDO(), sampling.UnwindStats{}
			}
			return st.FinishProbe(), sampling.UnwindStats{}
		}
	case FullCS:
		st := sampling.NewCSSPGOStream(bin, csspgoOptions(pc))
		sink = st
		finish = func(*sim.Machine) (*profdata.Profile, sampling.UnwindStats) { return st.Finish() }
	case InstrPGO:
		finish = func(m *sim.Machine) (*profdata.Profile, sampling.UnwindStats) {
			return sampling.GenerateInstrProfileWithValues(bin, m.Counters(), m.ValueProfile()), sampling.UnwindStats{}
		}
	default:
		sp.End()
		return nil, sampling.UnwindStats{}, sim.Stats{}, fmt.Errorf("pgo: unknown variant %q", variant)
	}
	var pmu sim.PMUConfig // instrumented runs read counters, not samples
	if sink != nil {
		pmu = pmuConfig(pc)
	}
	m := code.New(pmu)
	m.SetOverheadMeter(meter)
	if sink != nil {
		m.SetSampleSink(sink, 0)
	}
	err := runAll(m, requests)
	m.FlushSamples()
	sp.End()
	// Finish even after a fault: it drains the worker pool, so no goroutine
	// outlives the call.
	prof, us := finish(m)
	if err != nil {
		return nil, sampling.UnwindStats{}, sim.Stats{}, err
	}
	stats := m.Stats()
	stats.Publish(pc.Metrics)
	return prof, us, stats, nil
}

// CollectAndGenerateCS is CollectAndGenerate for the FullCS variant.
func CollectAndGenerateCS(bin *machine.Prog, requests [][]int64, pc ProfileConfig) (*profdata.Profile, sampling.UnwindStats, sim.Stats, error) {
	return CollectAndGenerate(bin, FullCS, requests, pc)
}

// CollectCounters runs the request stream on an instrumented binary and
// returns its counters plus execution stats (whose cycle count reveals the
// instrumentation overhead).
func CollectCounters(bin *machine.Prog, requests [][]int64) ([]uint64, sim.Stats, error) {
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	if err := runAll(m, requests); err != nil {
		return nil, sim.Stats{}, err
	}
	return m.Counters(), m.Stats(), nil
}

// Evaluate runs the request stream without any profiling and returns stats.
func Evaluate(bin *machine.Prog, requests [][]int64) (sim.Stats, error) {
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	if err := runAll(m, requests); err != nil {
		return sim.Stats{}, err
	}
	return m.Stats(), nil
}

// Pipeline runs the full train → profile → optimize flow for a variant and
// returns the optimized build plus the profile it used (nil for Baseline).
// All PGO variants train on the plain -O2 baseline binary appropriate to
// their correlation mechanism (probe-less for AutoFDO, probed for the
// pseudo-instrumentation variants, counter-instrumented for Instr PGO).
// Both binaries come from one lowering, as they come from one source and
// one set of probes: the training build compiles a clone of it, and the
// optimizing build the lowered program itself.
func Pipeline(files []*source.File, variant Variant, train [][]int64) (*BuildResult, *profdata.Profile, error) {
	probes := variant != Baseline && variant != AutoFDO
	trainCfg := BuildConfig{Probes: probes, Instrument: variant == InstrPGO}
	if variant == Baseline {
		base, err := Build(files, trainCfg)
		return base, nil, err
	}
	prog, err := lower(files, trainCfg, nil)
	if err != nil {
		return nil, nil, err
	}
	// No FreshIR: CollectProfileFor reads only the training binary.
	base, err := compile(ir.CloneProgram(prog), nil, trainCfg, nil)
	if err != nil {
		return nil, nil, err
	}
	prof, err := CollectProfileFor(base, variant, train)
	if err != nil {
		return nil, nil, err
	}
	res, err := compile(prog, ir.CloneProgram(prog), BuildConfig{
		Probes:                probes,
		Profile:               prof,
		UsePreInlineDecisions: variant == FullCS,
	}, nil)
	return res, prof, err
}

// CollectProfileFor profiles an existing training build and generates the
// profile the given variant consumes, ready for the optimizing build: for
// FullCS that includes cold-context trimming and the pre-inliner. The
// training build must match the variant (see CollectAndGenerate); Baseline
// yields nil. It returns no execution stats, so the training run is
// untimed (decoded under the zero CostParams): the same samples, counters
// and value profile as CollectAndGenerate's timed run, without paying for
// the i-cache and the branch predictor.
func CollectProfileFor(base *BuildResult, variant Variant, train [][]int64) (*profdata.Profile, error) {
	prof, _, _, err := collectAndGenerate(sim.Decode(base.Bin, sim.CostParams{}), variant, train, sampledAs(variant, DefaultProfileConfig()), nil)
	if err != nil {
		return nil, err
	}
	if variant == FullCS {
		TrimAndPreInline(prof, base.Bin, 0)
	}
	return prof, nil
}

// TrimAndPreInline prepares a raw CS profile for the optimizing build.
// Cold-context trimming keeps the profile comparable in size to a regular
// one (§III.B): contexts below trim samples fold into their base profiles,
// and trim == 0 picks the threshold automatically. Then the pre-inliner
// makes global top-down decisions with sizes extracted from the profiled
// binary (Algorithms 2+3) and marks them in the profile. It returns the
// number of contexts trimmed and the pre-inliner's result.
func TrimAndPreInline(prof *profdata.Profile, bin *machine.Prog, trim uint64) (int, preinline.Result) {
	return trimAndPreInline(prof, preinline.ExtractSizes(bin), trim)
}

// trimAndPreInline is TrimAndPreInline with the binary's sizes already
// extracted, for a caller that prepares many profiles of one binary.
func trimAndPreInline(prof *profdata.Profile, sizes *preinline.SizeTable, trim uint64) (int, preinline.Result) {
	if trim == 0 {
		trim = TrimThreshold(prof)
	}
	trimmed := prof.TrimColdContexts(trim)
	return trimmed, preinline.Run(prof, sizes, preinline.DeriveParams(prof))
}

// TrimThreshold picks a cold-context trim threshold: contexts below 0.05%
// of total samples are folded into base profiles.
func TrimThreshold(prof *profdata.Profile) uint64 {
	t := prof.TotalSamples() / 2000
	if t < 2 {
		t = 2
	}
	return t
}
