package main

import "strings"

// metricSpec is one row of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end rows only
	// exact marks a simulator or compiler count that must repeat bit for
	// bit for one seed, whatever the machine load.
	exact bool
}

// runSeconds is how long one run measures, BENCHMARK.json's run_seconds.
const runSeconds = 10

// endToEnd are the metrics a user of the toolchain sees. Every workload
// reports every one of them; what a rep is differs per workload (README).
//
// Time is CPU time of the process, not wall-clock time. The box the
// benchmark was sized on is a 2-vCPU guest whose host takes the CPUs away in
// bursts that last minutes: the wall-clock median of one workload at one
// seed read 0.25 s, then 0.43 s (README, "Noise"), and neither a low quantile
// nor a reference kernel run between the reps tracked it. The kernel does not
// charge stolen time to the process, so CPU seconds move about a third as
// much (contention for caches and the sibling thread still shows). Wall-clock
// time is still printed and written to -o, as rows of kind "info".
//
// The bounds are sized on the spread over ten seeds. For the exact rows that
// is the spread of the inputs: another training stream makes other inlining
// decisions.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rep_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rep_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "eval_cycles_per_req", Unit: "cycles", Better: "lower", Bound: 0.25, exact: true},
	{Name: "code_size_instrs", Unit: "instrs", Better: "lower", Bound: 0.25, exact: true},
}

// perLayer are the rows of the traced run, "<layer>.<metric>".
var perLayer = layerSpecs()

func layerSpecs() []metricSpec {
	var out []metricSpec
	add := func(better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unitOf(n), Better: better})
		}
	}
	add("lower", "source.load_ns", "irgen.lower_ns")
	add("lower", "irgen.ir_instrs", "probe.insert_ns", "probe.probes", "probe.overhead_pct")
	add("lower", "opt.optimize_ns.train", "opt.optimize_ns.use", "opt.ir_instrs_after")
	for _, p := range optPasses {
		add("lower", "opt.pass_ns."+p)
	}
	add("higher", "opt.annotated_funcs")
	add("lower", "opt.stale_funcs")
	add("higher", "opt.sample_inlines", "opt.static_inlines", "opt.icp_promotions", "opt.unrolled", "opt.dce_removed")
	add("lower", "inference.adjustments")
	add("lower", "codegen.lower_ns", "codegen.code_size_instrs", "codegen.probe_meta_bytes")
	add("lower", "sim.train_ns", "sim.eval_ns", "sim.instructions")
	add("higher", "sim.samples", "sim.minstr_per_s.plain", "sim.minstr_per_s.pmu")
	add("lower", "sampling.generate_ns")
	add("higher", "sampling.ksamples_per_s")
	add("lower", "sampling.unwind_ns", "sampling.resolve_contexts_ns", "sampling.merge_shards_ns")
	add("higher", "sampling.contexts")
	add("lower", "sampling.dropped", "sampling.truncated_ranges", "sampling.allocs_per_sample")
	add("lower", "preinline.run_ns")
	add("higher", "preinline.inlined_contexts")
	add("lower", "profdata.trim_ns", "profdata.contexts_after_trim", "profdata.profile_bytes")
	add("higher", "profdata.encode_bin_mb_per_s", "profdata.decode_bin_mb_per_s", "profdata.encode_text_mb_per_s", "profdata.decode_text_mb_per_s")
	add("lower", "profdata.merge_ns")
	add("higher", "stale.matched_funcs")
	add("lower", "stale.flat_fallback_funcs")
	add("higher", "stale.matched_contexts", "stale.match_quality")
	add("lower", "quality.diff_ns")
	add("higher", "quality.context_overlap")
	add("lower", "introspect.swap_ns", "introspect.folded_ns")
	add("lower", "introspect.http_get_ns.profiles", "introspect.http_get_ns.flamegraph", "introspect.http_get_ns.metrics")
	add("lower", "fleet.round_ns", "fleet.promote_ns")
	add("higher", "fleet.sources_merged")
	add("lower", "fleet.retries", "fleet.bytes_fetched", "overhead.refresh_pct")
	for _, v := range anchorVariants {
		add("lower", "pgo.eval_cycles_per_req."+string(v))
	}
	for _, v := range anchorVariants {
		add("lower", "pgo.pipeline_ns."+string(v))
	}
	add("lower", "obs.trace_overhead_pct")
	return out
}

// unitOf derives a layer row's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "ksamples_per_s"):
		return "ksamples/s"
	case strings.Contains(name, "minstr_per_s"):
		return "Minstr/s"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "bytes_fetched"):
		return "bytes"
	case strings.Contains(name, "cycles_per_req"):
		return "cycles"
	case strings.HasSuffix(name, "match_quality"), strings.HasSuffix(name, "context_overlap"):
		return "ratio"
	}
	return "count"
}
