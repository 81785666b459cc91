package csspgo

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each Benchmark* runs
// the corresponding experiment and reports its headline numbers as custom
// metrics, so `-bench` output doubles as the reproduction record:
//
//	BenchmarkFig6PerformanceVsAutoFDO  — Fig. 6 (perf vs AutoFDO per workload)
//	BenchmarkFig7CodeSize              — Fig. 7 (code size ratios)
//	BenchmarkFig8ProbeOverhead         — Fig. 8 (pseudo-instrumentation overhead)
//	BenchmarkFig9MetadataSize          — Fig. 9 (probe metadata share)
//	BenchmarkTable1ProfileQuality      — Table I (block overlap + overheads)
//	BenchmarkClientWorkload            — §IV.D (clangish client workload)
//	BenchmarkSourceDrift               — §III.A (drift resilience)
//	BenchmarkProfileSizeTrim           — §III.B (CS profile blowup + trimming)
//	BenchmarkTailCallRecovery          — §III.B (missing-frame inference)
//
// plus microbenchmarks of the substrates (simulator, unwinder, inference,
// pre-inliner).

import (
	"fmt"
	"testing"

	"csspgo/internal/inference"
	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

const benchScale = 2

func BenchmarkFig6PerformanceVsAutoFDO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunFig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.FullCSImpr, row.Workload+"_csspgo_%")
				b.ReportMetric(row.ProbeOnlyImpr, row.Workload+"_probeonly_%")
			}
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkFig7CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunFig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.FullCSRel, row.Workload+"_cs_sizerel")
			}
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkFig8ProbeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunFig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.ProbeOverheadPct, row.Workload+"_probe_ovh_%")
			}
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkFig9MetadataSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunFig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.ProbeSharePct, row.Workload+"_probemeta_%")
			}
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkTable1ProfileQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunTable1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.OverlapAutoFDO, "overlap_autofdo_%")
			b.ReportMetric(100*r.OverlapCSSPGO, "overlap_csspgo_%")
			b.ReportMetric(r.OverheadInstrPct, "instr_ovh_%")
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkClientWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunClient(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.CSSPGOImpr, "csspgo_%")
			b.ReportMetric(r.InstrImpr, "instr_%")
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkSourceDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunDrift(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.AutoFDONoInfFreshImpr-r.AutoFDONoInfDriftedImpr, "autofdo_noinf_lost_pp")
			b.ReportMetric(r.CSSPGOFreshImpr-r.CSSPGODriftedImpr, "csspgo_lost_pp")
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkProfileSizeTrim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunTrim(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.BlowupX, "cs_blowup_x")
			b.ReportMetric(r.TrimmedX, "trimmed_x")
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkTailCallRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunTailCall(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.RecoveryRate, "recovered_%")
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkValueProfileExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pgo.RunValueProfile(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	runs := map[string]func(int) (*pgo.AblationResult, error){
		"PreInliner": pgo.RunAblationPreInliner,
		"PEBS":       pgo.RunAblationPEBS,
		"Inference":  pgo.RunAblationInference,
		"Barrier":    pgo.RunAblationBarrier,
		"LBRDepth":   pgo.RunAblationLBRDepth,
		"ICP":        pgo.RunAblationICP,
	}
	for name, run := range runs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := run(benchScale)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + r.String())
				}
			}
		})
	}
}

// ------------------------------------------------------ substrate micros

// BenchmarkSimulator measures raw interpreter throughput (instructions/s).
func BenchmarkSimulator(b *testing.B) {
	w, err := workloads.Load("hhvm", 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pgo.Build(w.Files, pgo.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	m := sim.New(res.Bin, sim.DefaultCostParams(), sim.PMUConfig{})
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		before := m.Stats().Instructions
		if _, err := m.Run(int64(i), 200); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats().Instructions - before
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// BenchmarkUnwinder measures Algorithm 1 throughput (samples/op).
func BenchmarkUnwinder(b *testing.B) {
	w, err := workloads.Load("adranker", 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		b.Fatal(err)
	}
	samples, _, err := pgo.CollectSamples(res.Bin, w.Train, pgo.DefaultProfileConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := sampling.GenerateCSSPGO(res.Bin, samples, sampling.DefaultCSSPGOOptions())
		if stats.Samples == 0 {
			b.Fatal("no samples unwound")
		}
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
}

// BenchmarkParallelProfileGeneration measures the worker pool on the Fig. 6
// server corpus: the same sample streams unwound with 1 (serial), 2 and 4
// workers. Output profiles are byte-identical across the variants (the
// golden tests pin that); this benchmark only trades cores for wall-clock.
func BenchmarkParallelProfileGeneration(b *testing.B) {
	type corpus struct {
		bin     *machine.Prog
		samples []sim.Sample
	}
	var corpora []corpus
	for _, name := range workloads.ServerNames() {
		w, err := workloads.Load(name, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
		if err != nil {
			b.Fatal(err)
		}
		samples, _, err := pgo.CollectSamples(res.Bin, w.Train, pgo.DefaultProfileConfig())
		if err != nil {
			b.Fatal(err)
		}
		corpora = append(corpora, corpus{res.Bin, samples})
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := sampling.DefaultCSSPGOOptions()
			opts.Workers = workers
			var samples int
			for i := 0; i < b.N; i++ {
				samples = 0
				for _, c := range corpora {
					_, stats := sampling.GenerateCSSPGO(c.bin, c.samples, opts)
					samples += stats.Samples
				}
			}
			b.ReportMetric(float64(samples), "samples/op")
		})
	}
}

// BenchmarkStreamingGeneration measures the engine's samples/sec and
// allocation discipline (chunked dispatch to one pooled unwinder worker) on
// the Fig. 6 server corpus.
func BenchmarkStreamingGeneration(b *testing.B) {
	type corpus struct {
		bin     *machine.Prog
		samples []sim.Sample
	}
	var corpora []corpus
	total := 0
	for _, name := range workloads.ServerNames() {
		w, err := workloads.Load(name, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
		if err != nil {
			b.Fatal(err)
		}
		samples, _, err := pgo.CollectSamples(res.Bin, w.Train, pgo.DefaultProfileConfig())
		if err != nil {
			b.Fatal(err)
		}
		corpora = append(corpora, corpus{res.Bin, samples})
		total += len(samples)
	}
	opts := sampling.DefaultCSSPGOOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpora {
			sampling.GenerateCSSPGO(c.bin, c.samples, opts)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/sec, "samples/s")
	}
}

// BenchmarkInference measures the MCF profile-inference pass on adfinder:
// ProbeOnly hands it the flat profile's functions, FullCS the ones the
// pre-inliner's decisions have grown (post-inline main is the largest
// instance any workload solves).
func BenchmarkInference(b *testing.B) {
	w, err := workloads.Load("adfinder", 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []pgo.Variant{pgo.ProbeOnly, pgo.FullCS} {
		b.Run(string(variant), func(b *testing.B) {
			prof, err := pgo.CollectProfileFor(res, variant, w.Train)
			if err != nil {
				b.Fatal(err)
			}
			cfg := pgo.BuildConfig{
				Probes: true, Profile: prof, DisableInference: true,
				UsePreInlineDecisions: variant == pgo.FullCS,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				build, err := pgo.Build(w.Files, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				inference.InferProgram(build.IR)
			}
		})
	}
}

// BenchmarkEndToEndPipeline measures one full CSSPGO train→optimize cycle.
func BenchmarkEndToEndPipeline(b *testing.B) {
	w, err := workloads.Load("adretriever", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pgo.Pipeline(w.Files, pgo.FullCS, w.Train); err != nil {
			b.Fatal(err)
		}
	}
}
