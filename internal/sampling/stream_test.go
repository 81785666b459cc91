package sampling

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// ---------------------------------- engine vs the serial reference

// distinctSamples counts the different (LBR, stack) contents in samples.
func distinctSamples(samples []sim.Sample) int {
	seen := map[string]bool{}
	for _, s := range samples {
		seen[fmt.Sprint(s.LBR, s.Stack)] = true
	}
	return len(seen)
}

// TestStreamMatchesBatch is the engine's correctness contract: for every
// generator, worker count and chunk size, the profile must be byte-for-byte
// the one the serial per-sample reference (reference_test.go) produces from
// the same samples, and (for CSSPGO) the unwinder stats must agree exactly.
// The chunk sizes include the whole slice as one chunk, and the worker
// counts one above the number of distinct samples, so some workers get
// nothing to do.
func TestStreamMatchesBatch(t *testing.T) {
	for _, src := range []struct {
		name   string
		src    string
		probes bool
	}{
		{"hotcold", hotColdSrc, true},
		{"context", contextSrc, true},
	} {
		t.Run(src.name, func(t *testing.T) {
			bin := build(t, src.src, src.probes)
			samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
			if len(samples) < 8 {
				t.Skipf("only %d samples", len(samples))
			}

			wantCS, wantStats := referenceCSSPGO(bin, samples, DefaultCSSPGOOptions())
			wantCSBin := profdata.EncodeBinary(wantCS)
			wantProbe := profdata.EncodeBinary(referenceProbeProfile(bin, samples))
			wantAuto := profdata.EncodeBinary(referenceAutoFDO(bin, samples))

			for _, workers := range []int{1, 2, 3, 8, 0, distinctSamples(samples) + 1} {
				for _, chunk := range []int{1, 3, 17, 4096, len(samples)} {
					csOpts := DefaultCSSPGOOptions()
					csOpts.Workers = workers
					csOpts.ChunkSize = chunk
					got, gotStats := GenerateCSSPGO(bin, samples, csOpts)
					if !bytes.Equal(profdata.EncodeBinary(got), wantCSBin) {
						t.Fatalf("cs: workers=%d chunk=%d differs from the reference", workers, chunk)
					}
					if gotStats != wantStats {
						t.Fatalf("cs: workers=%d chunk=%d stats differ:\nreference %+v\ngot       %+v",
							workers, chunk, wantStats, gotStats)
					}
					flat := FlatOptions{Workers: workers, ChunkSize: chunk}
					if b := profdata.EncodeBinary(GenerateProbeProfile(bin, samples, flat)); !bytes.Equal(b, wantProbe) {
						t.Fatalf("probe: workers=%d chunk=%d differs from the reference", workers, chunk)
					}
					if b := profdata.EncodeBinary(GenerateAutoFDO(bin, samples, flat)); !bytes.Equal(b, wantAuto) {
						t.Fatalf("autofdo: workers=%d chunk=%d differs from the reference", workers, chunk)
					}
				}
			}
		})
	}
}

// The sink must also produce identical output when fed by a live machine
// (chunk handoff from the PMU, pooled chunks, partial final flush) rather
// than a materialized slice.
func TestStreamSinkFromMachineMatchesBatch(t *testing.T) {
	bin := build(t, contextSrc, true)
	cfg := sim.DefaultPMUConfig(16)

	// Reference: materialize, then run the serial per-sample loop.
	samples := profileRun(t, bin, cfg, 40, 400)
	if len(samples) < 8 {
		t.Skipf("only %d samples", len(samples))
	}
	want, wantStats := referenceCSSPGO(bin, samples, DefaultCSSPGOOptions())
	wantBin := profdata.EncodeBinary(want)

	for _, chunk := range []int{7, 64} {
		opts := DefaultCSSPGOOptions()
		opts.Workers = 4
		st := NewCSSPGOStream(bin, opts)
		m := sim.New(bin, sim.DefaultCostParams(), cfg)
		m.SetSampleSink(st, chunk)
		for i := 0; i < 40; i++ {
			if _, err := m.Run(400 + int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		m.FlushSamples()
		got, gotStats := st.Finish()
		if !bytes.Equal(profdata.EncodeBinary(got), wantBin) {
			t.Fatalf("chunk=%d: sink-fed profile differs from the reference", chunk)
		}
		if gotStats != wantStats {
			t.Fatalf("chunk=%d: sink-fed stats differ:\nreference %+v\ngot       %+v", chunk, wantStats, gotStats)
		}
	}
}

// stream.distinct_samples is what the workers actually unwound: per chunk,
// the number of different (LBR, stack) contents in it, summed over chunks.
// It depends on where the chunk boundaries fall and on nothing else — not on
// the worker count — and both engines publish it. By default (ChunkSize 0) a
// materialized slice is one chunk, so it counts the slice's distinct samples.
func TestDistinctSamplesCounter(t *testing.T) {
	bin := build(t, contextSrc, true)
	base := profileRun(t, bin, sim.DefaultPMUConfig(16), 10, 100)
	if len(base) < 8 {
		t.Skipf("only %d samples", len(base))
	}
	samples := duplicate(base, 4, 1)
	for _, chunk := range []int{4, 6, 17, len(samples), 0} {
		size := chunk
		if chunk == 0 {
			size = len(samples)
		}
		var want int64
		for start := 0; start < len(samples); start += size {
			want += int64(distinctSamples(samples[start:min(start+size, len(samples))]))
		}
		if chunk == 4 && want != int64(len(base)) {
			t.Fatalf("chunk=4: every chunk is 4 copies of one sample, yet %d distinct for %d base samples", want, len(base))
		}
		for _, workers := range []int{1, 3} {
			reg := obs.NewRegistry()
			opts := DefaultCSSPGOOptions()
			opts.Workers, opts.ChunkSize, opts.Metrics = workers, chunk, reg
			GenerateCSSPGO(bin, samples, opts)
			if got := reg.Counter(obs.MStreamDistinctSamples).Value(); got != want {
				t.Errorf("cs: chunk=%d workers=%d: %s = %d, want %d", chunk, workers, obs.MStreamDistinctSamples, got, want)
			}
			reg = obs.NewRegistry()
			GenerateProbeProfile(bin, samples, FlatOptions{Workers: workers, ChunkSize: chunk, Metrics: reg})
			if got := reg.Counter(obs.MStreamDistinctSamples).Value(); got != want {
				t.Errorf("flat: chunk=%d workers=%d: %s = %d, want %d", chunk, workers, obs.MStreamDistinctSamples, got, want)
			}
		}
	}
}

// ------------------------------------ satellite: icall merge deep-copies

// TestICallTargetsMergeDeepCopies is the regression test for the aliasing
// bug: the merged result used to adopt per-worker inner maps by reference,
// so mutating (or pooling) a shard's map after the merge corrupted the
// merged histogram.
func TestICallTargetsMergeDeepCopies(t *testing.T) {
	shardA := map[uint64]map[string]uint64{
		0x10: {"f": 1},
		0x20: {"g": 2},
	}
	shardB := map[uint64]map[string]uint64{
		0x20: {"g": 3},
		0x30: {"h": 4},
	}
	merged := mergeICallTargets([]map[uint64]map[string]uint64{shardA, shardB})

	// Mutate both shards post-merge, as a pooled/reused shard would be.
	shardA[0x10]["f"] = 999
	shardA[0x10]["zzz"] = 1
	shardB[0x30]["h"] = 999
	delete(shardB[0x20], "g")

	if got := merged[0x10]["f"]; got != 1 {
		t.Fatalf("merged result aliases shard A: got %d, want 1", got)
	}
	if _, ok := merged[0x10]["zzz"]; ok {
		t.Fatal("merged result aliases shard A: phantom callee appeared")
	}
	if got := merged[0x20]["g"]; got != 5 {
		t.Fatalf("merge sum wrong or aliased: got %d, want 5", got)
	}
	if got := merged[0x30]["h"]; got != 4 {
		t.Fatalf("merged result aliases shard B: got %d, want 4", got)
	}
}

// ------------------------------------------- allocation-discipline pins

// groupAndConsume returns what ConsumeChunk does for a pool of one worker:
// group samples as one chunk, with a grouper reused from call to call, and
// hand all the groups to consume as one share.
func groupAndConsume(samples []sim.Sample, consume func(share)) func() {
	c := &groupedChunk{ch: &sim.SampleChunk{Index: 0, Samples: samples, Borrowed: true}}
	return func() { consume(share{c, c.group(samples)}) }
}

// steadyStateAllocsPerSample is the allocation budget of a warm worker:
// once the pending tables, arena and scratch buffers are sized, grouping a
// chunk and consuming its groups allocates nothing (0.000 per sample over
// 15 155 samples, with and without -race); the budget leaves room for a
// handful of allocations a run, not one per sample.
const steadyStateAllocsPerSample = 0.01

// TestSteadyStateAllocsPerSample pins the CS worker's allocation budget.
func TestSteadyStateAllocsPerSample(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
	if len(samples) < 8 {
		t.Skipf("only %d samples", len(samples))
	}
	opts := DefaultCSSPGOOptions()
	opts.TailCallInference = true
	w := newCSWorker(bin, opts)
	consume := groupAndConsume(samples, w.consume)
	consume() // warm-up: populate tables and size all scratch buffers

	allocs := testing.AllocsPerRun(10, consume)
	perSample := allocs / float64(len(samples))
	t.Logf("steady state: %.3f allocs/sample (%d samples)", perSample, len(samples))
	if perSample > steadyStateAllocsPerSample {
		t.Fatalf("steady-state allocations per sample = %.3f, budget is %.2f", perSample, steadyStateAllocsPerSample)
	}
}

// The flat collector has the same budget.
func TestSteadyStateAllocsPerSampleFlat(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
	if len(samples) < 8 {
		t.Skipf("only %d samples", len(samples))
	}
	w := newFlatWorker(bin)
	consume := groupAndConsume(samples, w.consume)
	consume()

	allocs := testing.AllocsPerRun(10, consume)
	perSample := allocs / float64(len(samples))
	t.Logf("steady state: %.3f allocs/sample (%d samples)", perSample, len(samples))
	if perSample > steadyStateAllocsPerSample {
		t.Fatalf("steady-state allocations per sample = %.3f, budget is %.2f", perSample, steadyStateAllocsPerSample)
	}
}

// --------------------------------------------- fuzz: chunked dispatcher

// fuzzRef is the serial reference's answer for one duplication pattern.
type fuzzRef struct {
	samples []sim.Sample
	want    []byte
	stats   UnwindStats
}

var fuzzStream struct {
	sync.Once
	bin  *machine.Prog
	base []sim.Sample
	refs map[[2]int]*fuzzRef // (repeat, stride) -> reference, computed on first use
}

// FuzzChunkedDispatcher drives the chunk dispatcher with fuzzer-chosen
// chunk sizes, worker counts and duplication patterns (duplicate's repeat
// count and stride over the seed samples, so identical samples land in one
// chunk, straddle chunks and reach different workers); any combination must
// reproduce the serial per-sample reference byte-for-byte.
func FuzzChunkedDispatcher(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(0), uint8(0))
	f.Add(uint16(3), uint8(2), uint8(3), uint8(0))
	f.Add(uint16(17), uint8(5), uint8(1), uint8(6))
	f.Add(uint16(4096), uint8(8), uint8(2), uint8(11))
	f.Add(uint16(0), uint8(0), uint8(0), uint8(0))
	// Runs of 3 copies start at multiples of 3, so the run at 4095 straddles
	// 4096, where sim.DefaultChunkSize chunks cut the ~5.6 k-sample stream.
	f.Add(uint16(0), uint8(3), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, chunkSize uint16, workers, repeat, stride uint8) {
		fuzzStream.Do(func() {
			fuzzStream.bin = build(t, contextSrc, true)
			fuzzStream.base = profileRun(t, fuzzStream.bin, sim.DefaultPMUConfig(16), 20, 300)
			fuzzStream.refs = map[[2]int]*fuzzRef{}
		})
		if len(fuzzStream.base) == 0 {
			t.Skip("no samples")
		}
		pattern := [2]int{1 + int(repeat)%4, 1 + int(stride)%12}
		ref := fuzzStream.refs[pattern]
		if ref == nil {
			// The more copies, the fewer originals: every pattern is a stream
			// of about len(base) samples, so no pattern fuzzes slower.
			ref = &fuzzRef{samples: duplicate(fuzzStream.base[:len(fuzzStream.base)/pattern[0]], pattern[0], pattern[1])}
			p, st := referenceCSSPGO(fuzzStream.bin, ref.samples, DefaultCSSPGOOptions())
			ref.want, ref.stats = profdata.EncodeBinary(p), st
			fuzzStream.refs[pattern] = ref
		}
		opts := DefaultCSSPGOOptions()
		opts.ChunkSize = int(chunkSize) // 0 feeds the slice as one chunk
		opts.Workers = int(workers) % 17
		got, gotStats := GenerateCSSPGO(fuzzStream.bin, ref.samples, opts)
		if !bytes.Equal(profdata.EncodeBinary(got), ref.want) {
			t.Fatalf("chunk=%d workers=%d repeat=%d stride=%d: profile differs from the reference", chunkSize, opts.Workers, pattern[0], pattern[1])
		}
		if gotStats != ref.stats {
			t.Fatalf("chunk=%d workers=%d repeat=%d stride=%d: stats differ:\nreference %+v\ngot       %+v",
				chunkSize, opts.Workers, pattern[0], pattern[1], ref.stats, gotStats)
		}
	})
}
