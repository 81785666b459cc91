package csspgo

// Micro-benchmarks of the substrates with no other home (run with
// `go test -bench=. -benchmem`): the unwinder, the profile-generation worker
// pool and its streaming engine, MCF inference, one full CSSPGO pipeline,
// and pgo.Build alone. The simulator's is internal/sim's BenchmarkRun; the
// paper's tables and figures are cmd/experiments; the gated end-to-end
// numbers are bench/ (BENCHMARK.json).

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"csspgo/internal/drift"
	"csspgo/internal/inference"
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

const benchScale = 2

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

// BenchmarkParallelProfileGeneration measures the worker pool on two server
// corpora: the Fig. 6 one (production period, ~1.5 k samples) and the dense
// one bench/'s profgen-bound workload times (period 199, ~1000 requests a
// program, ~42 k samples). The same sample streams are unwound with 1
// (serial), 2 and 4 workers; distinct/op is how many of samples/op the
// workers actually unwound after grouping each slice's identical samples
// (stream.distinct_samples; a slice is one chunk, whatever the worker
// count). Output profiles are byte-identical across the variants (the
// golden tests pin that); this benchmark only trades cores for wall-clock,
// and cpu-ns/op (user + system time of the whole process, collector
// included) says what the trade costs.
func BenchmarkParallelProfileGeneration(b *testing.B) {
	type corpus struct {
		bin     *machine.Prog
		samples []sim.Sample
	}
	for _, set := range []struct {
		name   string
		scale  int
		period uint64
	}{
		{"fig6", benchScale, pgo.DefaultProfileConfig().Period},
		{"period199", 14, 199},
	} {
		var corpora []corpus
		for _, name := range workloads.ServerNames() {
			w, err := workloads.Load(name, set.scale)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
			if err != nil {
				b.Fatal(err)
			}
			pc := pgo.DefaultProfileConfig()
			pc.Period = set.period
			samples, _, err := pgo.CollectSamples(res.Bin, w.Train, pc)
			if err != nil {
				b.Fatal(err)
			}
			corpora = append(corpora, corpus{res.Bin, samples})
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", set.name, workers), func(b *testing.B) {
				opts := sampling.DefaultCSSPGOOptions()
				opts.Workers = workers
				var samples int
				var distinct int64
				cpu0 := processCPU()
				for i := 0; i < b.N; i++ {
					samples = 0
					opts.Metrics = obs.NewRegistry()
					for _, c := range corpora {
						_, stats := sampling.GenerateCSSPGO(c.bin, c.samples, opts)
						samples += stats.Samples
					}
					distinct = opts.Metrics.Counter(obs.MStreamDistinctSamples).Value()
				}
				b.ReportMetric(float64(processCPU()-cpu0)/float64(b.N), "cpu-ns/op")
				b.ReportMetric(float64(samples), "samples/op")
				b.ReportMetric(float64(distinct), "distinct/op")
			})
		}
	}
}

// processCPU is the user + system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only an invalid argument can fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
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

// BenchmarkBuild measures pgo.Build alone — the compile path the benchmark's
// build-bound and stale-rebuild workloads time — on adfinder and hhvm, with
// allocations: train is the probed build no profile guides, use the rebuild
// from the program's own FullCS profile, stale the rebuild of the
// InsertStmts-drifted source from the pristine profile through the stale
// matcher. Its allocation twins in tier-1 are internal/pgo's
// TestBuildAllocCeiling, internal/ir's TestVerifyAllocs and internal/opt's
// TestDCEConvergedAllocs.
func BenchmarkBuild(b *testing.B) {
	type input struct {
		w     *workloads.Workload
		prof  *profdata.Profile
		stale []*source.File
	}
	var inputs []input
	for _, name := range []string{"adfinder", "hhvm"} {
		w, err := workloads.Load(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		_, prof, err := pgo.Pipeline(w.Files, pgo.FullCS, w.Train)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{w, prof, drift.Apply(w.Files, drift.InsertStmts, 1)})
	}
	for _, mode := range []string{"train", "use", "stale"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range inputs {
					files, cfg := in.w.Files, pgo.BuildConfig{Probes: true}
					if mode != "train" {
						cfg.Profile, cfg.UsePreInlineDecisions = in.prof, true
					}
					if mode == "stale" {
						files, cfg.StaleMatching = in.stale, true
					}
					if _, err := pgo.Build(files, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
