package experiments

import (
	"fmt"
	"strings"

	"csspgo/internal/drift"
	"csspgo/internal/pgo"
	"csspgo/internal/quality"
	"csspgo/internal/sampling"
	"csspgo/internal/workloads"
)

// This file regenerates every table and figure of the paper's evaluation
// (§IV) plus the in-text experiments (§III). Each Run* function returns
// typed rows and renders a table via its String method.

// ---------------------------------------------------------------- Fig. 6

// fig6Row is one workload's performance comparison (improvements are
// percentages over the AutoFDO baseline; positive = faster).
type fig6Row struct {
	Workload      string
	ProbeOnlyImpr float64
	FullCSImpr    float64
	InstrImpr     float64 // NaN-like 0 + HasInstr=false when not measured
	HasInstr      bool
	// ProbeShare is probe-only's share of the full-CSSPGO gain (paper:
	// 38-78%).
	ProbeShare float64
}

// fig6Result is the full figure.
type fig6Result struct {
	Rows []fig6Row
}

// runFig6 reproduces Fig. 6: CSSPGO performance vs AutoFDO across the five
// server workloads, with the probe-only breakdown, plus Instr PGO on hhvm
// (the only workload the paper could instrument — here mirrored
// deliberately).
func runFig6(scale int) (*fig6Result, error) {
	out := &fig6Result{}
	for _, name := range workloads.ServerNames() {
		variants := []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS}
		if name == "hhvm" {
			variants = append(variants, pgo.InstrPGO)
		}
		c, err := compareServer(name, scale, variants)
		if err != nil {
			return nil, err
		}
		row := fig6Row{
			Workload:      name,
			ProbeOnlyImpr: c.improvementOver(pgo.AutoFDO, pgo.ProbeOnly),
			FullCSImpr:    c.improvementOver(pgo.AutoFDO, pgo.FullCS),
		}
		if name == "hhvm" {
			row.InstrImpr = c.improvementOver(pgo.AutoFDO, pgo.InstrPGO)
			row.HasInstr = true
		}
		if row.FullCSImpr != 0 {
			row.ProbeShare = 100 * row.ProbeOnlyImpr / row.FullCSImpr
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func (r *fig6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 6 — performance improvement over AutoFDO (%)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s %14s\n", "workload", "probe-only", "full CSSPGO", "Instr PGO", "probe share %")
	for _, row := range r.Rows {
		instr := "n/a"
		if row.HasInstr {
			instr = fmt.Sprintf("%+.2f", row.InstrImpr)
		}
		fmt.Fprintf(&sb, "%-14s %+12.2f %+12.2f %12s %14.0f\n",
			row.Workload, row.ProbeOnlyImpr, row.FullCSImpr, instr, row.ProbeShare)
	}
	return sb.String()
}

// Gauges publishes both improvements per workload.
func (r *fig6Result) Gauges() map[string]float64 {
	g := map[string]float64{}
	for _, row := range r.Rows {
		g[row.Workload+".probeonly_impr_pct"] = row.ProbeOnlyImpr
		g[row.Workload+".csspgo_impr_pct"] = row.FullCSImpr
	}
	return g
}

// ---------------------------------------------------------------- Fig. 7

// fig7Row is one workload's code-size comparison (text bytes; ratios
// relative to AutoFDO).
type fig7Row struct {
	Workload     string
	AutoFDOBytes uint64
	ProbeOnlyRel float64
	FullCSRel    float64
}

// fig7Result is the code-size figure.
type fig7Result struct {
	Rows []fig7Row
}

// runFig7 reproduces Fig. 7: code size of probe-only and full CSSPGO
// relative to AutoFDO.
func runFig7(scale int) (*fig7Result, error) {
	out := &fig7Result{}
	for _, name := range workloads.ServerNames() {
		c, err := compareServer(name, scale, []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, fig7Row{
			Workload:     name,
			AutoFDOBytes: c.Results[pgo.AutoFDO].Build.Bin.TextSize,
			ProbeOnlyRel: c.sizeRatio(pgo.AutoFDO, pgo.ProbeOnly),
			FullCSRel:    c.sizeRatio(pgo.AutoFDO, pgo.FullCS),
		})
	}
	return out, nil
}

func (r *fig7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — code size relative to AutoFDO (1.0 = equal)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s\n", "workload", "AutoFDO B", "probe-only", "full CSSPGO")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %12d %12.3f %12.3f\n",
			row.Workload, row.AutoFDOBytes, row.ProbeOnlyRel, row.FullCSRel)
	}
	return sb.String()
}

// Gauges publishes full CSSPGO's relative size per workload.
func (r *fig7Result) Gauges() map[string]float64 {
	g := map[string]float64{}
	for _, row := range r.Rows {
		g[row.Workload+".csspgo_sizerel"] = row.FullCSRel
	}
	return g
}

// ---------------------------------------------------------------- Fig. 8

// fig8Row measures pseudo-instrumentation runtime overhead on one workload.
type fig8Row struct {
	Workload         string
	BaseCycles       uint64
	ProbedCycles     uint64
	ProbeOverheadPct float64
	InstrOverheadPct float64 // counter instrumentation, for contrast
}

// fig8Result is the probing-overhead figure.
type fig8Result struct {
	Rows []fig8Row
}

// runFig8 reproduces Fig. 8: run-time overhead of pseudo-instrumentation
// (probes inserted but materialized as metadata only) versus a plain build,
// contrasted with real counter instrumentation (the Table I 73%-class
// overhead).
func runFig8(scale int) (*fig8Result, error) {
	out := &fig8Result{}
	for _, name := range workloads.ServerNames() {
		w, err := workloads.Load(name, scale)
		if err != nil {
			return nil, err
		}
		_, sPlain, err := buildEval(w.Files, pgo.BuildConfig{Probes: false}, w.Eval)
		if err != nil {
			return nil, err
		}
		_, sProbed, err := buildEval(w.Files, pgo.BuildConfig{Probes: true}, w.Eval)
		if err != nil {
			return nil, err
		}
		_, sInstr, err := buildEval(w.Files, pgo.BuildConfig{Probes: true, Instrument: true}, w.Eval)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, fig8Row{
			Workload:         name,
			BaseCycles:       sPlain.Cycles,
			ProbedCycles:     sProbed.Cycles,
			ProbeOverheadPct: pct(sProbed.Cycles, sPlain.Cycles),
			InstrOverheadPct: pct(sInstr.Cycles, sPlain.Cycles),
		})
	}
	return out, nil
}

func (r *fig8Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 8 — pseudo-instrumentation run-time overhead (%, vs plain -O2)\n")
	fmt.Fprintf(&sb, "%-14s %14s %14s %16s\n", "workload", "probe ovh %", "instr ovh %", "(cycles plain)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %+14.3f %+14.2f %16d\n",
			row.Workload, row.ProbeOverheadPct, row.InstrOverheadPct, row.BaseCycles)
	}
	return sb.String()
}

// Gauges publishes the probe overhead per workload.
func (r *fig8Result) Gauges() map[string]float64 {
	g := map[string]float64{}
	for _, row := range r.Rows {
		g[row.Workload+".probe_overhead_pct"] = row.ProbeOverheadPct
	}
	return g
}

// ---------------------------------------------------------------- Fig. 9

// fig9Row is one workload's metadata-size breakdown.
type fig9Row struct {
	Workload      string
	TextBytes     uint64
	DebugBytes    uint64
	ProbeBytes    uint64
	ProbeSharePct float64 // of total binary incl. -g2 debug info
	DebugSharePct float64
}

// fig9Result is the metadata-size figure.
type fig9Result struct {
	Rows []fig9Row
}

// runFig9 reproduces Fig. 9: the pseudo-probe metadata section's share of
// total binary size (text + debug info + probe metadata), with the debug
// info share for comparison.
func runFig9(scale int) (*fig9Result, error) {
	out := &fig9Result{}
	for _, name := range workloads.ServerNames() {
		w, err := workloads.Load(name, scale)
		if err != nil {
			return nil, err
		}
		probed, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return nil, err
		}
		bin := probed.Bin
		total := bin.TextSize + bin.DebugSize + bin.ProbeMetaSize
		out.Rows = append(out.Rows, fig9Row{
			Workload:      name,
			TextBytes:     bin.TextSize,
			DebugBytes:    bin.DebugSize,
			ProbeBytes:    bin.ProbeMetaSize,
			ProbeSharePct: 100 * float64(bin.ProbeMetaSize) / float64(total),
			DebugSharePct: 100 * float64(bin.DebugSize) / float64(total),
		})
	}
	return out, nil
}

func (r *fig9Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 9 — size overhead of probe metadata (share of text+debug+probe)\n")
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s %12s %12s\n", "workload", "text B", "debug B", "probe B", "probe %", "debug %")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %10d %10d %10d %12.1f %12.1f\n",
			row.Workload, row.TextBytes, row.DebugBytes, row.ProbeBytes,
			row.ProbeSharePct, row.DebugSharePct)
	}
	return sb.String()
}

// Gauges publishes the probe metadata share per workload.
func (r *fig9Result) Gauges() map[string]float64 {
	g := map[string]float64{}
	for _, row := range r.Rows {
		g[row.Workload+".probemeta_share_pct"] = row.ProbeSharePct
	}
	return g
}

// --------------------------------------------------------------- Table I

// table1Result holds the HHVM profile-quality and overhead comparison.
type table1Result struct {
	OverlapAutoFDO     float64
	OverlapCSSPGO      float64
	OverlapInstr       float64 // 1.0 by construction
	OverheadAutoFDOPct float64
	OverheadCSSPGOPct  float64
	OverheadInstrPct   float64
}

// runTable1 reproduces Table I on the hhvm workload: block overlap degree
// against instrumentation ground truth, plus profiling (training-run)
// overhead of each collection mechanism.
func runTable1(scale int) (*table1Result, error) {
	w, err := workloads.Load("hhvm", scale)
	if err != nil {
		return nil, err
	}

	// Plain and probed training binaries + the instrumented ground truth.
	plain, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: false})
	if err != nil {
		return nil, err
	}
	probed, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	instr, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true, Instrument: true})
	if err != nil {
		return nil, err
	}

	// Profile collection runs (same train stream).
	pc := pgo.DefaultProfileConfig()
	pcNoStacks := pc
	pcNoStacks.Stacks = false
	lbrSamples, plainStats, err := pgo.CollectSamples(plain.Bin, w.Train, pcNoStacks)
	if err != nil {
		return nil, err
	}
	csSamples, probedStats, err := pgo.CollectSamples(probed.Bin, w.Train, pc)
	if err != nil {
		return nil, err
	}
	counters, instrStats, err := pgo.CollectCounters(instr.Bin, w.Train)
	if err != nil {
		return nil, err
	}

	autofdoProf := sampling.GenerateAutoFDO(plain.Bin, lbrSamples, sampling.FlatOptions{Workers: pc.Workers})
	csProf, _ := sampling.GenerateCSSPGO(probed.Bin, csSamples, sampling.DefaultCSSPGOOptions())
	gt := sampling.GenerateInstrProfile(instr.Bin, counters)

	common := probed.FreshIR
	res := &table1Result{
		OverlapAutoFDO: quality.BlockOverlap(common, autofdoProf, gt),
		OverlapCSSPGO:  quality.BlockOverlap(common, csProf, gt),
		OverlapInstr:   quality.BlockOverlap(common, gt, gt),
	}

	// Profiling overhead: AutoFDO samples the plain production binary
	// (reference, 0%); CSSPGO samples the probed binary (near-zero probe
	// cost); instrumentation pays for every counter increment.
	res.OverheadAutoFDOPct = 0
	res.OverheadCSSPGOPct = pct(probedStats.Cycles, plainStats.Cycles)
	res.OverheadInstrPct = pct(instrStats.Cycles, plainStats.Cycles)
	return res, nil
}

func (r *table1Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table I — HHVM profile quality and profiling overhead\n")
	fmt.Fprintf(&sb, "%-22s %10s %10s %10s\n", "", "AutoFDO", "CSSPGO", "Instr PGO")
	fmt.Fprintf(&sb, "%-22s %9.1f%% %9.1f%% %9.1f%%\n", "block overlap",
		100*r.OverlapAutoFDO, 100*r.OverlapCSSPGO, 100*r.OverlapInstr)
	fmt.Fprintf(&sb, "%-22s %9.2f%% %9.2f%% %9.2f%%\n", "profiling overhead",
		r.OverheadAutoFDOPct, r.OverheadCSSPGOPct, r.OverheadInstrPct)
	return sb.String()
}

// Gauges publishes the two sampled overlaps and the instrumentation overhead.
func (r *table1Result) Gauges() map[string]float64 {
	return map[string]float64{
		"overlap_autofdo":    r.OverlapAutoFDO,
		"overlap_csspgo":     r.OverlapCSSPGO,
		"overhead_instr_pct": r.OverheadInstrPct,
	}
}

// ----------------------------------------------------- §IV.D client workload

// clientResult holds the clangish client-workload comparison.
type clientResult struct {
	CSSPGOImpr float64
	CSSPGOSize float64 // relative to AutoFDO
	InstrImpr  float64
	InstrSize  float64
}

// runClient reproduces §IV.D: the client workload (clangish) where short
// training runs starve sampling of coverage, widening the gap between
// sampling-based and instrumentation-based PGO.
func runClient(scale int) (*clientResult, error) {
	w, err := workloads.Load("clangish", scale)
	if err != nil {
		return nil, err
	}
	c, err := compare(w, []pgo.Variant{pgo.AutoFDO, pgo.FullCS, pgo.InstrPGO})
	if err != nil {
		return nil, err
	}
	return &clientResult{
		CSSPGOImpr: c.improvementOver(pgo.AutoFDO, pgo.FullCS),
		CSSPGOSize: c.sizeRatio(pgo.AutoFDO, pgo.FullCS),
		InstrImpr:  c.improvementOver(pgo.AutoFDO, pgo.InstrPGO),
		InstrSize:  c.sizeRatio(pgo.AutoFDO, pgo.InstrPGO),
	}, nil
}

func (r *clientResult) String() string {
	var sb strings.Builder
	sb.WriteString("§IV.D — client workload (clangish), vs AutoFDO\n")
	fmt.Fprintf(&sb, "%-12s %12s %12s\n", "variant", "perf %", "size rel")
	fmt.Fprintf(&sb, "%-12s %+12.2f %12.3f\n", "CSSPGO", r.CSSPGOImpr, r.CSSPGOSize)
	fmt.Fprintf(&sb, "%-12s %+12.2f %12.3f\n", "Instr PGO", r.InstrImpr, r.InstrSize)
	return sb.String()
}

// Gauges publishes both improvements over AutoFDO.
func (r *clientResult) Gauges() map[string]float64 {
	return map[string]float64{
		"csspgo_impr_pct": r.CSSPGOImpr,
		"instr_impr_pct":  r.InstrImpr,
	}
}

// --------------------------------------------------------- §III.A drift

// driftResult measures source-drift resilience: a comment-only edit shifts
// every line; the stale-but-line-shifted profile is reused by both
// correlation mechanisms.
type driftResult struct {
	AutoFDOFreshImpr   float64 // improvement with a matching profile
	AutoFDODriftedImpr float64 // improvement with the drifted profile
	// The same pair with MCF inference disabled, isolating raw
	// correlation quality (inference itself mitigates drift).
	AutoFDONoInfFreshImpr   float64
	AutoFDONoInfDriftedImpr float64
	CSSPGOFreshImpr         float64
	CSSPGODriftedImpr       float64
	StaleDetected           int // functions whose checksum caught real CFG change
}

// runDrift reproduces the §III.A source-drift experiment on adfinder: every
// function gains a two-line comment under its header (drift.ShiftLines), and
// each variant reuses the profile collected on the pre-drift binary.
// Line-offset correlation silently mis-annotates; probe-based correlation is
// immune to line shifts (probe IDs and checksums are line-independent).
func runDrift(scale int) (*driftResult, error) {
	w, err := workloads.Load("adfinder", scale)
	if err != nil {
		return nil, err
	}
	drifted := drift.ShiftLines(w.Files, 2)

	res := &driftResult{}

	// AutoFDO: train on the pristine binary.
	base, baseStats, err := buildEval(w.Files, pgo.BuildConfig{Probes: false}, w.Eval)
	if err != nil {
		return nil, err
	}
	pc := pgo.DefaultProfileConfig()
	pc.Stacks = false
	samples, _, err := pgo.CollectSamples(base.Bin, w.Train, pc)
	if err != nil {
		return nil, err
	}
	lineProf := sampling.GenerateAutoFDO(base.Bin, samples, sampling.FlatOptions{Workers: pc.Workers})

	_, freshStats, err := buildEval(w.Files, pgo.BuildConfig{Probes: false, Profile: lineProf}, w.Eval)
	if err != nil {
		return nil, err
	}
	_, driftStats, err := buildEval(drifted, pgo.BuildConfig{Probes: false, Profile: lineProf}, w.Eval)
	if err != nil {
		return nil, err
	}
	res.AutoFDOFreshImpr = pct(baseStats.Cycles, freshStats.Cycles)
	res.AutoFDODriftedImpr = pct(baseStats.Cycles, driftStats.Cycles)

	// Without inference: raw correlation quality.
	_, freshNIStats, err := buildEval(w.Files, pgo.BuildConfig{Probes: false, Profile: lineProf, DisableInference: true}, w.Eval)
	if err != nil {
		return nil, err
	}
	_, driftNIStats, err := buildEval(drifted, pgo.BuildConfig{Probes: false, Profile: lineProf, DisableInference: true}, w.Eval)
	if err != nil {
		return nil, err
	}
	res.AutoFDONoInfFreshImpr = pct(baseStats.Cycles, freshNIStats.Cycles)
	res.AutoFDONoInfDriftedImpr = pct(baseStats.Cycles, driftNIStats.Cycles)

	// CSSPGO: probe-based correlation on the same drift.
	pbase, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	csProf, err := pgo.CollectProfileFor(pbase, pgo.FullCS, w.Train)
	if err != nil {
		return nil, err
	}

	_, csFreshStats, err := buildEval(w.Files, pgo.BuildConfig{Probes: true, Profile: csProf, UsePreInlineDecisions: true}, w.Eval)
	if err != nil {
		return nil, err
	}
	csDrift, csDriftStats, err := buildEval(drifted, pgo.BuildConfig{Probes: true, Profile: csProf, UsePreInlineDecisions: true}, w.Eval)
	if err != nil {
		return nil, err
	}
	res.CSSPGOFreshImpr = pct(baseStats.Cycles, csFreshStats.Cycles)
	res.CSSPGODriftedImpr = pct(baseStats.Cycles, csDriftStats.Cycles)
	res.StaleDetected = csDrift.Stats.StaleFuncs
	return res, nil
}

func (r *driftResult) String() string {
	var sb strings.Builder
	sb.WriteString("§III.A — source drift (comment-only edit, profile reused)\n")
	fmt.Fprintf(&sb, "%-22s %14s %14s %10s\n", "variant", "fresh impr %", "drifted impr %", "lost pp")
	fmt.Fprintf(&sb, "%-22s %+14.2f %+14.2f %10.2f\n", "AutoFDO",
		r.AutoFDOFreshImpr, r.AutoFDODriftedImpr, r.AutoFDOFreshImpr-r.AutoFDODriftedImpr)
	fmt.Fprintf(&sb, "%-22s %+14.2f %+14.2f %10.2f\n", "AutoFDO (no profi)",
		r.AutoFDONoInfFreshImpr, r.AutoFDONoInfDriftedImpr, r.AutoFDONoInfFreshImpr-r.AutoFDONoInfDriftedImpr)
	fmt.Fprintf(&sb, "%-22s %+14.2f %+14.2f %10.2f\n", "CSSPGO",
		r.CSSPGOFreshImpr, r.CSSPGODriftedImpr, r.CSSPGOFreshImpr-r.CSSPGODriftedImpr)
	fmt.Fprintf(&sb, "stale functions detected by checksum after drift: %d (expect 0 — CFG unchanged)\n", r.StaleDetected)
	return sb.String()
}

// --------------------------------------------------------- §III.B trimming

// trimResult quantifies the CS-profile size blowup and the trim mitigation.
type trimResult struct {
	FlatBytes    int
	FullCSBytes  int
	TrimmedBytes int
	// Binary-format sizes for the same three profiles (the compact
	// encoding a production pipeline would ship).
	FlatBinBytes    int
	FullCSBinBytes  int
	TrimmedBinBytes int
	ContextsBefore  int
	ContextsAfter   int
	BlowupX         float64
	TrimmedX        float64
}

// runTrim reproduces the §III.B scalability discussion on haas (dense
// dynamic call graph): full context-sensitive profiles are several times
// larger than flat ones; trimming cold contexts brings them back to
// comparable size.
func runTrim(scale int) (*trimResult, error) {
	w, err := workloads.Load("haas", scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	pc := pgo.DefaultProfileConfig()
	samples, _, err := pgo.CollectSamples(base.Bin, w.Train, pc)
	if err != nil {
		return nil, err
	}
	flat := sampling.GenerateProbeProfile(base.Bin, samples, sampling.FlatOptions{Workers: pc.Workers})
	cs, _ := sampling.GenerateCSSPGO(base.Bin, samples, sampling.CSSPGOOptions{TailCallInference: true, MaxContextDepth: 10, Workers: pc.Workers})

	res := &trimResult{
		FlatBytes:      flat.SizeBytes(),
		FullCSBytes:    cs.SizeBytes(),
		FlatBinBytes:   flat.BinarySizeBytes(),
		FullCSBinBytes: cs.BinarySizeBytes(),
		ContextsBefore: len(cs.Contexts),
	}
	// Keep only the hottest contexts — a budget of a few per profiled
	// function brings the CS profile back to regular-profile size without
	// losing the hot contexts inlining cares about.
	budget := 2 * len(flat.Funcs)
	cs.TrimColdContexts(cs.HotThresholdForBudget(budget))
	res.TrimmedBytes = cs.SizeBytes()
	res.TrimmedBinBytes = cs.BinarySizeBytes()
	res.ContextsAfter = len(cs.Contexts)
	res.BlowupX = float64(res.FullCSBytes) / float64(res.FlatBytes)
	res.TrimmedX = float64(res.TrimmedBytes) / float64(res.FlatBytes)
	return res, nil
}

func (r *trimResult) String() string {
	var sb strings.Builder
	sb.WriteString("§III.B — CS profile size and cold-context trimming (haas)\n")
	fmt.Fprintf(&sb, "flat profile:      %8d B text   %8d B binary\n", r.FlatBytes, r.FlatBinBytes)
	fmt.Fprintf(&sb, "full CS profile:   %8d B text   %8d B binary (%.1fx flat, %d contexts)\n", r.FullCSBytes, r.FullCSBinBytes, r.BlowupX, r.ContextsBefore)
	fmt.Fprintf(&sb, "trimmed profile:   %8d B text   %8d B binary (%.1fx flat, %d contexts)\n", r.TrimmedBytes, r.TrimmedBinBytes, r.TrimmedX, r.ContextsAfter)
	return sb.String()
}

// ------------------------------------------------------ §III.B tail calls

// tailCallResult quantifies missing-frame recovery.
type tailCallResult struct {
	MissingFrameEvents int
	EventsRecovered    int
	FramesRecovered    int
	RecoveryRate       float64
}

// runTailCall reproduces the §III.B missing-frame experiment on
// adretriever (tail-call-eliminated pipeline stages): the share of missing
// tail-call frames the DFS inferrer recovers (paper: more than two-thirds).
func runTailCall(scale int) (*tailCallResult, error) {
	w, err := workloads.Load("adretriever", scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	pc := pgo.DefaultProfileConfig()
	samples, _, err := pgo.CollectSamples(base.Bin, w.Train, pc)
	if err != nil {
		return nil, err
	}
	_, stats := sampling.GenerateCSSPGO(base.Bin, samples, sampling.DefaultCSSPGOOptions())
	res := &tailCallResult{
		MissingFrameEvents: stats.MissingFrameEvents,
		EventsRecovered:    stats.EventsRecovered,
		FramesRecovered:    stats.FramesRecovered,
	}
	if stats.MissingFrameEvents > 0 {
		res.RecoveryRate = float64(stats.EventsRecovered) / float64(stats.MissingFrameEvents)
	}
	return res, nil
}

func (r *tailCallResult) String() string {
	var sb strings.Builder
	sb.WriteString("§III.B — tail-call missing-frame recovery (adretriever)\n")
	fmt.Fprintf(&sb, "missing-frame events: %d\nevents repaired:      %d (%.0f%%)\nframes reinserted:    %d\n",
		r.MissingFrameEvents, r.EventsRecovered, 100*r.RecoveryRate, r.FramesRecovered)
	return sb.String()
}

// ---------------------------------------------- extension: value profiling

// valueProfileResult compares PGO variants on the indirect-dispatch
// workload, where instrumentation's exact value profiles drive more (and
// more confident) indirect-call promotion than LBR-sampled target
// histograms — the paper's acknowledged remaining advantage of Instr PGO
// (§IV.A "value-profile-based optimizations").
type valueProfileResult struct {
	Rows []struct {
		Variant    pgo.Variant
		ImprPct    float64 // vs AutoFDO
		Promotions int
	}
}

// runValueProfile runs the extension experiment on the dispatcher workload.
func runValueProfile(scale int) (*valueProfileResult, error) {
	w, err := workloads.Load("dispatcher", scale)
	if err != nil {
		return nil, err
	}
	c, err := compare(w, []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS, pgo.InstrPGO})
	if err != nil {
		return nil, err
	}
	out := &valueProfileResult{}
	for _, v := range []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS, pgo.InstrPGO} {
		r := c.Results[v]
		out.Rows = append(out.Rows, struct {
			Variant    pgo.Variant
			ImprPct    float64
			Promotions int
		}{v, c.improvementOver(pgo.AutoFDO, v), r.Build.Stats.ICPromotions})
	}
	return out, nil
}

func (r *valueProfileResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension — value profiling & indirect-call promotion (dispatcher)\n")
	fmt.Fprintf(&sb, "%-12s %14s %12s\n", "variant", "impr vs AF %", "promotions")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %+14.2f %12d\n", row.Variant, row.ImprPct, row.Promotions)
	}
	return sb.String()
}
