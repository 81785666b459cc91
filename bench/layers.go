package main

import (
	"runtime"
	"strings"
	"time"

	"csspgo"
	"csspgo/internal/ir"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
	"csspgo/internal/preinline"
	"csspgo/internal/source"
)

// This file is the traced run: the same work as the timed reps, taken apart
// so that a span surrounds every call into a layer, plus the measurements
// that only the per-layer rows need.

// counts are the count-type layer rows of one rep, summed over its
// programs. A nil counts drops everything.
type counts map[string]float64

func (c counts) add(name string, v float64) {
	if c != nil {
		c[name] += v
	}
}

// irInstrs counts the instructions of an IR program.
func irInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Functions() {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// addBuild records the rows a profile-consuming build contributes.
func (c counts) addBuild(res *pgo.BuildResult) {
	c.add("irgen.ir_instrs", float64(irInstrs(res.FreshIR)))
	c.add("opt.ir_instrs_after", float64(irInstrs(res.IR)))
	c.add("probe.probes", float64(len(res.Bin.Probes)))
	c.add("codegen.code_size_instrs", float64(len(res.Bin.Instrs)))
	c.add("codegen.probe_meta_bytes", float64(len(res.Bin.EncodeProbeSection())))
	st := res.Stats
	c.add("opt.annotated_funcs", float64(st.AnnotatedFuncs))
	c.add("opt.stale_funcs", float64(st.StaleFuncs))
	c.add("opt.sample_inlines", float64(st.SampleInlines))
	c.add("opt.static_inlines", float64(st.StaticInlines))
	c.add("opt.icp_promotions", float64(st.ICPromotions))
	c.add("opt.unrolled", float64(st.Unrolled))
	c.add("opt.dce_removed", float64(st.DCERemoved))
	c.add("inference.adjustments", float64(st.InferenceAdjust))
	c.add("stale.matched_funcs", float64(st.MatchedFuncs))
	c.add("stale.flat_fallback_funcs", float64(st.FlatFallbackFuncs))
	c.add("stale.matched_contexts", float64(st.MatchedContexts))
	if st.MatchedFuncs > 0 {
		c.add("stale.quality_sum", st.MatchQuality)
		c.add("stale.quality_n", 1)
	}
}

// memCount is the part of runtime.MemStats the bench reads.
type memCount struct {
	mallocs    uint64
	totalAlloc uint64
}

func readMemCount() memCount {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCount{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
}

// build is pgo.Build. Traced, it passes an obs.Trace through the existing
// BuildConfig.Trace field and files the spans of irgen, probe insertion,
// every optimizer pass and codegen under its own span; role says whether
// the build trains or uses a profile.
func build(tr *tracer, role, program string, files []*source.File, cfg pgo.BuildConfig) (*pgo.BuildResult, error) {
	if tr == nil {
		return pgo.Build(files, cfg)
	}
	sp := tr.begin("pgo.build", program)
	at := tr.now()
	ot := obs.NewTrace()
	cfg.Trace = ot
	res, err := pgo.Build(files, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return res, tr.importObs(sp, at, ot, func(name string) (string, bool) {
		switch {
		case name == "irgen":
			return "irgen.lower", true
		case name == "probe_insert":
			return "probe.insert", true
		case name == "optimize":
			return "opt.optimize." + role, true
		case name == "codegen":
			return "codegen.lower", true
		case strings.HasPrefix(name, "opt."):
			return "opt.pass." + strings.TrimPrefix(name, "opt."), true
		}
		return "", false // "build" itself: the bench's pgo.build span stands for it
	})
}

// renameSampling keeps the profile generator's stages when it runs on
// materialized samples, where each blocks the result.
func renameSampling(name string) (string, bool) {
	switch name {
	case "sampling.unwind", "sampling.resolve_contexts", "sampling.merge_shards":
		return name, true
	}
	return "", false
}

// renameCollect keeps only the simulation out of a streaming collection.
// There the unwind span stays open for as long as the simulation feeds it,
// so it measures waiting, not work; what the generator costs the pipeline is
// the self time of the bench's sampling.generate span once sim.train is
// taken out.
func renameCollect(name string) (string, bool) {
	if name == "collect_samples" {
		return "sim.train", true
	}
	return "", false
}

// tracedPipeline is pgo.Pipeline(files, FullCS, train) stage by stage.
func tracedPipeline(tr *tracer, p *program, cnt counts) (*pgo.BuildResult, error) {
	base, err := build(tr, "train", p.name, p.files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, err
	}

	pc := pgo.DefaultProfileConfig()
	ot := obs.NewTrace()
	pc.Trace = ot
	sp := tr.begin("sampling.generate", p.name)
	at := tr.now()
	prof, us, stats, err := pgo.CollectAndGenerateCS(base.Bin, p.train, pc)
	tr.endWork(sp, float64(stats.Samples))
	if err != nil {
		return nil, err
	}
	if err := tr.importObs(sp, at, ot, renameCollect); err != nil {
		return nil, err
	}
	cnt.add("sim.instructions", float64(stats.Instructions))
	cnt.add("sim.samples", float64(stats.Samples))
	cnt.add("sampling.contexts", float64(len(prof.Contexts)))
	cnt.add("sampling.dropped", float64(us.Dropped))
	cnt.add("sampling.truncated_ranges", float64(us.TruncatedRanges))

	sp = tr.begin("profdata.trim", p.name)
	prof.TrimColdContexts(trimThreshold(prof))
	tr.end(sp)
	cnt.add("profdata.contexts_after_trim", float64(len(prof.Contexts)))

	sp = tr.begin("preinline.run", p.name)
	pre := preinline.Run(prof, preinline.ExtractSizes(base.Bin), preinline.DeriveParams(prof))
	tr.end(sp)
	cnt.add("preinline.inlined_contexts", float64(pre.Inlined))
	cnt.add("profdata.profile_bytes", float64(len(csspgo.EncodeProfileBinary(prof))))

	res, err := build(tr, "use", p.name, p.files, useConfig(prof))
	if err != nil {
		return nil, err
	}
	cnt.addBuild(res)
	return res, nil
}

// optPasses are the optimizer passes with a row of their own.
var optPasses = []string{
	"annotate", "inference", "sample-inline", "icp", "simplify-cfg", "dce", "inline", "licm",
	"unroll", "if-convert", "tce", "layout", "split", "remove-unreachable", "drop-dead-functions",
}

// variantExtras builds every program once with each of the five variants:
// the Fig. 6 / Table I comparison. It is kept out of the end-to-end rows so
// that a better AutoFDO does not read as a CSSPGO regression. Every variant
// binary is checked against the O0 reference like any measured binary.
func variantExtras(programs []*program, chk *check, out map[string]float64) {
	for _, v := range anchorVariants {
		var products []product
		var took time.Duration
		for _, p := range programs {
			t0 := time.Now()
			res, _, err := pgo.Pipeline(p.files, v, p.train)
			took += time.Since(t0)
			if chk.call(err, string(v)+" pipeline "+p.name) {
				products = append(products, product{label: p.name + "/" + string(v), bin: res.Bin, eval: p.eval, want: p.want})
			}
		}
		out["pgo.pipeline_ns."+string(v)] = float64(took)
		out["pgo.eval_cycles_per_req."+string(v)] = evaluate(products, chk, nil).cyclesPerReq
	}
}

// probeOverhead is Fig. 8: cycles of the training stream on the probed
// build against the unprobed one, in percent, averaged over the programs.
func probeOverhead(programs []*program, chk *check) float64 {
	sum, n := 0.0, 0
	for _, p := range programs {
		var cycles [2]float64
		ok := true
		for i, probes := range []bool{false, true} {
			res, err := pgo.Build(p.files, pgo.BuildConfig{Probes: probes})
			if !chk.call(err, "probe-overhead build "+p.name) {
				ok = false
				break
			}
			st, err := pgo.Evaluate(res.Bin, p.train)
			if !chk.call(err, "probe-overhead run "+p.name) {
				ok = false
				break
			}
			cycles[i] = float64(st.Cycles)
		}
		if ok {
			sum += 100 * (cycles[1] - cycles[0]) / cycles[0]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// layerMetrics turns the spans and counts of a traced run into the
// per-layer rows. A layer the workload never enters reads 0.
func layerMetrics(a *traceAgg, c counts, evalInstructions uint64, extras map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range extras {
		m[k] = v
	}
	perSec := func(work, ns float64) float64 {
		if ns == 0 {
			return 0
		}
		return work / (ns / 1e9)
	}

	m["source.load_ns"] = a.outside(repSetup, "source.load")
	m["irgen.lower_ns"] = a.medDur("irgen.lower")
	m["probe.insert_ns"] = a.medDur("probe.insert")
	m["opt.optimize_ns.train"] = a.medDur("opt.optimize.train")
	m["opt.optimize_ns.use"] = a.medDur("opt.optimize.use")
	for _, pass := range optPasses {
		m["opt.pass_ns."+pass] = a.medDur("opt.pass." + pass)
	}
	m["codegen.lower_ns"] = a.medDur("codegen.lower")

	m["sim.train_ns"] = a.medDur("sim.train")
	m["sim.eval_ns"] = a.outside(repVerify, "sim.eval")
	m["sim.minstr_per_s.plain"] = perSec(float64(evalInstructions), m["sim.eval_ns"]) / 1e6
	m["sim.minstr_per_s.pmu"] = perSec(c["sim.instructions"], m["sim.train_ns"]) / 1e6

	m["sampling.generate_ns"] = a.medDur("sampling.generate") - m["sim.train_ns"]
	m["sampling.ksamples_per_s"] = perSec(median(a.perRep(a.work, "sampling.generate")), m["sampling.generate_ns"]) / 1e3
	m["sampling.unwind_ns"] = a.medDur("sampling.unwind")
	m["sampling.resolve_contexts_ns"] = a.medDur("sampling.resolve_contexts")
	m["sampling.merge_shards_ns"] = a.medDur("sampling.merge_shards")
	if c["sampling.samples"] > 0 {
		m["sampling.allocs_per_sample"] = c["sampling.mallocs"] / c["sampling.samples"]
	}

	m["preinline.run_ns"] = a.medDur("preinline.run")
	m["profdata.trim_ns"] = a.medDur("profdata.trim")
	m["profdata.merge_ns"] = a.medDur("profdata.merge")
	for _, codec := range []string{"encode_bin", "decode_bin", "encode_text", "decode_text"} {
		m["profdata."+codec+"_mb_per_s"] = a.rate("profdata."+codec) / 1e6
	}
	if c["stale.quality_n"] > 0 {
		m["stale.match_quality"] = c["stale.quality_sum"] / c["stale.quality_n"]
	}

	m["quality.diff_ns"] = a.medDur("quality.diff")
	m["introspect.swap_ns"] = a.medEach("introspect.swap")
	m["introspect.folded_ns"] = a.medDur("introspect.folded")
	for _, ep := range []string{"profiles", "flamegraph", "metrics"} {
		m["introspect.http_get_ns."+ep] = a.medEach("introspect.http_get." + ep)
	}
	m["fleet.round_ns"] = a.medDur("fleet.round")
	m["fleet.promote_ns"] = a.medDur("fleet.promote")

	// Every remaining row is a count carried over by name.
	for _, spec := range perLayer {
		if _, done := m[spec.Name]; !done {
			m[spec.Name] = c[spec.Name]
		}
	}
	return m
}
