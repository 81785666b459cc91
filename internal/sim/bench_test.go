package sim_test

import (
	"syscall"
	"testing"
	"time"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

// recycleSink drops every chunk: the benchmark times the machine, not a
// consumer.
type recycleSink struct{}

func (recycleSink) ConsumeChunk(ch *sim.SampleChunk) { sim.RecycleChunk(ch) }

// benchPrograms builds the probed hhvm and adranker binaries with their
// golden request streams.
func benchPrograms(tb testing.TB) []benchProgram {
	tb.Helper()
	var progs []benchProgram
	for _, name := range []string{"hhvm", "adranker"} {
		w, err := workloads.Load(name, 1)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, benchProgram{res.Bin, goldenStream(name, goldenBound[name])})
	}
	return progs
}

type benchProgram struct {
	bin  *machine.Prog
	reqs [][]int64
}

func (p benchProgram) run(tb testing.TB, m *sim.Machine) {
	for _, req := range p.reqs {
		if _, err := m.Run(req...); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRunSteadyStateAllocs is the allocation gate on the run loop: once a
// machine is warm (arena grown, snapshot buffer and chunk slots sized), Run
// allocates nothing — not per call, not per instruction, and in streaming
// mode not per sample either. Materialized mode owns its samples, so it may
// allocate per sample and for nothing else.
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, p := range benchPrograms(t) {
		plain := sim.New(p.bin, sim.DefaultCostParams(), sim.PMUConfig{})
		p.run(t, plain)
		if n := testing.AllocsPerRun(5, func() { p.run(t, plain) }); n != 0 {
			t.Errorf("sampling off: %v allocs per %d warmed runs, want 0", n, len(p.reqs))
		}

		// A small chunk makes every slot see many samples while warming up,
		// and puts dozens of chunk hand-offs inside the measured runs.
		streamed := sim.New(p.bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(199))
		streamed.SetSampleSink(recycleSink{}, 64)
		for i := 0; i < 3; i++ {
			p.run(t, streamed)
		}
		if n := testing.AllocsPerRun(5, func() { p.run(t, streamed) }); n != 0 && !raceEnabled {
			t.Errorf("sink at period 199: %v allocs per %d warmed runs, want 0", n, len(p.reqs))
		}
		streamed.FlushSamples()

		owned := sim.New(p.bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(199))
		p.run(t, owned)
		before := len(owned.Samples())
		const runs = 5
		n := testing.AllocsPerRun(runs, func() { p.run(t, owned) })
		perRun := float64(len(owned.Samples())-before) / (runs + 1) // AllocsPerRun warms up once
		if n > 2*perRun+2 {
			t.Errorf("materialized: %v allocs for %.0f samples, want at most the LBR and stack copy per sample", n, perRun)
		}
	}
}

// BenchmarkRun is the `go test -bench` twin of the repository benchmark's
// sim.minstr_per_s.{plain,pmu} rows: simulated instructions per second on
// the probed hhvm and adranker binaries, without a PMU and with the CSSPGO
// sampling configuration streaming into a sink, both timed; untimed is the
// second on the untimed machine (CostParams{}), as profile collection runs
// it. Minstr/s is per second of wall clock; cpu-ns/op and Minstr/cpu-s are
// per second of process CPU time (user + system, as root bench_test.go
// reads it), which swings far less between back-to-back runs on a shared
// machine.
func BenchmarkRun(b *testing.B) {
	progs := benchPrograms(b)
	for _, mode := range []struct {
		name string
		cost sim.CostParams
		pmu  sim.PMUConfig
	}{
		{"plain", sim.DefaultCostParams(), sim.PMUConfig{}},
		{"pmu", sim.DefaultCostParams(), sim.DefaultPMUConfig(199)},
		{"untimed", sim.CostParams{}, sim.DefaultPMUConfig(199)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var ms []*sim.Machine
			for _, p := range progs {
				m := sim.New(p.bin, mode.cost, mode.pmu)
				if mode.pmu.SamplePeriod != 0 {
					m.SetSampleSink(recycleSink{}, 0)
				}
				ms = append(ms, m)
			}
			b.ResetTimer()
			cpu0 := processCPU()
			for i := 0; i < b.N; i++ {
				for j, m := range ms {
					progs[j].run(b, m)
				}
			}
			cpu := processCPU() - cpu0
			b.StopTimer()
			var instrs uint64
			for _, m := range ms {
				instrs += m.Stats().Instructions
				m.FlushSamples() // hand the partial chunk back to the pool
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
			b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/op")
			b.ReportMetric(float64(instrs)/1e6/cpu.Seconds(), "Minstr/cpu-s")
		})
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
