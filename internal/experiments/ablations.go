package experiments

import (
	"fmt"
	"strings"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/opt"
	"csspgo/internal/pgo"
	"csspgo/internal/probe"
	"csspgo/internal/quality"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// This file holds the ablation studies DESIGN.md calls out beyond the
// paper's own probe-only breakdown: the pre-inliner, PEBS precision, MCF
// inference, and the probe barrier strength each switched off/over
// individually.

// ablationRow is one configuration's outcome.
type ablationRow struct {
	Name         string
	CyclesPerReq float64
	ImprPct      float64 // vs the study's own reference row
	TextBytes    uint64
	Note         string
}

// ablationResult is one ablation study.
type ablationResult struct {
	Title string
	Rows  []ablationRow
}

func (r *ablationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	fmt.Fprintf(&sb, "%-34s %14s %10s %10s  %s\n", "configuration", "cycles/req", "impr %", "text B", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-34s %14.0f %+10.2f %10d  %s\n",
			row.Name, row.CyclesPerReq, row.ImprPct, row.TextBytes, row.Note)
	}
	return sb.String()
}

// runAblationPreInliner compares full CSSPGO with and without the offline
// pre-inliner (without it, the compile-time sample inliner falls back to a
// hotness threshold for context retention).
func runAblationPreInliner(scale int) (*ablationResult, error) {
	w, err := workloads.Load("adranker", scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	samples, _, err := pgo.CollectSamples(base.Bin, w.Train, pgo.DefaultProfileConfig())
	if err != nil {
		return nil, err
	}

	mk := func(withPre bool) (*pgo.BuildResult, sim.Stats, error) {
		prof, _ := sampling.GenerateCSSPGO(base.Bin, samples, sampling.DefaultCSSPGOOptions())
		cfg := pgo.BuildConfig{Probes: true, Profile: prof}
		if withPre {
			pgo.TrimAndPreInline(prof, base.Bin, 0)
			cfg.UsePreInlineDecisions = true
		} else {
			prof.TrimColdContexts(pgo.TrimThreshold(prof))
			cfg.CSHotContextThreshold = prof.TotalSamples() / 500
		}
		return buildEval(w.Files, cfg, w.Eval)
	}

	withPre, sWith, err := mk(true)
	if err != nil {
		return nil, err
	}
	withoutPre, sWithout, err := mk(false)
	if err != nil {
		return nil, err
	}

	n := float64(len(w.Eval))
	res := &ablationResult{Title: "Ablation — pre-inliner (adranker, full CSSPGO)"}
	res.Rows = append(res.Rows,
		ablationRow{Name: "compile-time hot-context inlining", CyclesPerReq: float64(sWithout.Cycles) / n,
			TextBytes: withoutPre.Bin.TextSize, Note: "no offline decisions"},
		ablationRow{Name: "offline pre-inliner (Alg. 2+3)", CyclesPerReq: float64(sWith.Cycles) / n,
			ImprPct:   100 * (float64(sWithout.Cycles) - float64(sWith.Cycles)) / float64(sWithout.Cycles),
			TextBytes: withPre.Bin.TextSize,
			Note:      "binary-extracted sizes, global top-down, ThinLTO-compatible"},
	)
	return res, nil
}

// runAblationPEBS measures context-recovery quality with and without
// precise sampling: without PEBS, stacks lag the LBR by one frame on
// call/return samples and the unwinder must detect and compensate.
func runAblationPEBS(scale int) (*ablationResult, error) {
	w, err := workloads.Load("adranker", scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	res := &ablationResult{Title: "Ablation — PEBS precision & skid handling (adranker)"}
	type cfg struct {
		name   string
		pebs   bool
		assume bool
	}
	for _, c := range []cfg{
		{"PEBS on (synchronized)", true, false},
		{"PEBS off + skid detection", false, false},
		{"PEBS off, naive unwinder", false, true},
	} {
		pc := pgo.DefaultProfileConfig()
		pc.PEBS = c.pebs
		samples, _, err := pgo.CollectSamples(base.Bin, w.Train, pc)
		if err != nil {
			return nil, err
		}
		opts := sampling.DefaultCSSPGOOptions()
		opts.AssumeAligned = c.assume
		prof, stats := sampling.GenerateCSSPGO(base.Bin, samples, opts)
		pgo.TrimAndPreInline(prof, base.Bin, 0)
		build, st, err := buildEval(w.Files, pgo.BuildConfig{Probes: true, Profile: prof, UsePreInlineDecisions: true}, w.Eval)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ablationRow{
			Name:         c.name,
			CyclesPerReq: float64(st.Cycles) / float64(len(w.Eval)),
			TextBytes:    build.Bin.TextSize,
			Note:         fmt.Sprintf("%d skid-adjusted, %d contexts", stats.SkidAdjusted, len(prof.Contexts)),
		})
	}
	for i := 1; i < len(res.Rows); i++ {
		res.Rows[i].ImprPct = 100 * (res.Rows[0].CyclesPerReq - res.Rows[i].CyclesPerReq) / res.Rows[0].CyclesPerReq
	}
	return res, nil
}

// runAblationInference measures MCF profile inference's contribution to
// AutoFDO (the variant whose raw correlation is noisiest).
func runAblationInference(scale int) (*ablationResult, error) {
	w, err := workloads.Load("adfinder", scale)
	if err != nil {
		return nil, err
	}
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
	prof := sampling.GenerateAutoFDO(base.Bin, samples, sampling.FlatOptions{})

	res := &ablationResult{Title: "Ablation — MCF profile inference (adfinder, AutoFDO)"}
	for _, inf := range []bool{false, true} {
		build, st, err := buildEval(w.Files, pgo.BuildConfig{Probes: false, Profile: prof, DisableInference: !inf}, w.Eval)
		if err != nil {
			return nil, err
		}
		name := "raw sampled counts"
		if inf {
			name = "with MCF inference (profi)"
		}
		res.Rows = append(res.Rows, ablationRow{
			Name:         name,
			CyclesPerReq: float64(st.Cycles) / float64(len(w.Eval)),
			ImprPct:      pct(baseStats.Cycles, st.Cycles) * -1,
			TextBytes:    build.Bin.TextSize,
			Note:         "impr vs no-PGO baseline",
		})
	}
	return res, nil
}

// runAblationBarrier measures the probe-barrier strength trade-off on the
// training binary: run-time overhead (vs no probes) against profile
// quality (block overlap vs instrumented ground truth) — the paper's
// "flexible framework" knob quantified.
func runAblationBarrier(scale int) (*ablationResult, error) {
	w, err := workloads.Load("adfinder", scale)
	if err != nil {
		return nil, err
	}

	plain, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: false})
	if err != nil {
		return nil, err
	}
	weak, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	strong, err := buildWithBarrier(w.Files, opt.BarrierStrong)
	if err != nil {
		return nil, err
	}
	instr, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true, Instrument: true})
	if err != nil {
		return nil, err
	}

	// Ground truth for quality.
	counters, _, err := pgo.CollectCounters(instr.Bin, w.Train)
	if err != nil {
		return nil, err
	}
	gt := sampling.GenerateInstrProfile(instr.Bin, counters)

	res := &ablationResult{Title: "Ablation — probe barrier strength (adfinder): overhead vs profile quality"}
	var plainCycles uint64 // the first row's
	for i, c := range []struct {
		name  string
		build *pgo.BuildResult
	}{
		{"no probes", plain},
		{"weak barrier (production)", weak},
		{"strong barrier", strong},
	} {
		st, err := pgo.Evaluate(c.build.Bin, w.Eval)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			plainCycles = st.Cycles
		}
		note := "—"
		if c.build != plain {
			samples, _, err := pgo.CollectSamples(c.build.Bin, w.Train, pgo.DefaultProfileConfig())
			if err != nil {
				return nil, err
			}
			prof := sampling.GenerateProbeProfile(c.build.Bin, samples, sampling.FlatOptions{})
			overlap := quality.BlockOverlap(c.build.FreshIR, prof, gt)
			note = fmt.Sprintf("block overlap %.1f%%", 100*overlap)
		}
		res.Rows = append(res.Rows, ablationRow{
			Name:         c.name,
			CyclesPerReq: float64(st.Cycles) / float64(len(w.Eval)),
			ImprPct:      pct(st.Cycles, plainCycles) * -1,
			TextBytes:    c.build.Bin.TextSize,
			Note:         note,
		})
	}
	return res, nil
}

// buildWithBarrier compiles a probed training build at an explicit probe
// barrier level (the Fig. 8 builds use the production weak barrier; this
// lets the ablation push probes to instrumentation-strength semantics).
func buildWithBarrier(files []*source.File, barrier opt.BarrierStrength) (*pgo.BuildResult, error) {
	prog, err := irgen.Lower(files...)
	if err != nil {
		return nil, err
	}
	probe.InsertProgram(prog)
	fresh := ir.CloneProgram(prog)
	stats, err := opt.Optimize(prog, &opt.Config{Barrier: barrier})
	if err != nil {
		return nil, err
	}
	bin, err := codegen.Lower(prog, codegen.Options{})
	if err != nil {
		return nil, err
	}
	return &pgo.BuildResult{Bin: bin, IR: prog, FreshIR: fresh, Stats: stats}, nil
}

// runAblationICP isolates indirect-call promotion on the dispatcher
// workload (probe-only profile): same profile, ICP on vs off.
func runAblationICP(scale int) (*ablationResult, error) {
	w, err := workloads.Load("dispatcher", scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	pc := pgo.DefaultProfileConfig()
	pc.Stacks = false
	samples, _, err := pgo.CollectSamples(base.Bin, w.Train, pc)
	if err != nil {
		return nil, err
	}
	prof := sampling.GenerateProbeProfile(base.Bin, samples, sampling.FlatOptions{})

	res := &ablationResult{Title: "Ablation — indirect-call promotion (dispatcher, probe-only profile)"}
	for _, disable := range []bool{true, false} {
		b, st, err := buildEval(w.Files, pgo.BuildConfig{Probes: true, Profile: prof, DisableICP: disable}, w.Eval)
		if err != nil {
			return nil, err
		}
		name := "ICP disabled"
		if !disable {
			name = "ICP enabled"
		}
		res.Rows = append(res.Rows, ablationRow{
			Name:         name,
			CyclesPerReq: float64(st.Cycles) / float64(len(w.Eval)),
			TextBytes:    b.Bin.TextSize,
			Note: fmt.Sprintf("%d promotions, %d indirect calls retired",
				b.Stats.ICPromotions, st.IndirectCalls),
		})
	}
	res.Rows[1].ImprPct = 100 * (res.Rows[0].CyclesPerReq - res.Rows[1].CyclesPerReq) / res.Rows[0].CyclesPerReq
	return res, nil
}

// runAblationLBRDepth compares context recovery at LBR depths 8/16/32.
func runAblationLBRDepth(scale int) (*ablationResult, error) {
	w, err := workloads.Load("haas", scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}
	res := &ablationResult{Title: "Ablation — LBR depth (haas, ranges & contexts recovered)"}
	for _, depth := range []int{8, 16, 32} {
		cfg := sim.DefaultPMUConfig(pgo.DefaultProfileConfig().Period)
		cfg.LBRDepth = depth
		m := sim.New(base.Bin, sim.DefaultCostParams(), cfg)
		for _, req := range w.Train {
			if _, err := m.Run(req...); err != nil {
				return nil, err
			}
		}
		prof, stats := sampling.GenerateCSSPGO(base.Bin, m.Samples(), sampling.DefaultCSSPGOOptions())
		res.Rows = append(res.Rows, ablationRow{
			Name:         fmt.Sprintf("LBR depth %d", depth),
			CyclesPerReq: float64(stats.Ranges),
			TextBytes:    uint64(len(prof.Contexts)),
			Note:         fmt.Sprintf("%d ranges (cycles col), %d contexts (text col), %d samples", stats.Ranges, len(prof.Contexts), stats.Samples),
		})
	}
	return res, nil
}
