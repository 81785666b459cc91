package pgo

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// The files under testdata/golden were written once, at the last commit
// that still had the serial per-sample batch generator (Workers: 1,
// Stream: false), for every workload and every examples/ module: one text
// profile per kind plus the CS run's UnwindStats. They pin the engine's
// bytes; the serial reference in internal/sampling/reference_test.go covers
// the inputs no golden file does.

// code.digest pins what the compiler emits: one line per program and
// variant, "program variant fnv64 summary", where the hash is over
// machine.Prog.String() followed by every instruction, symbol and probe
// record of the binary Pipeline builds (the summary alone is six section
// sizes). A refactor of ir, opt or codegen must leave it byte-identical;
// UPDATE_GOLDEN=1 rewrites a program's lines, only for a change that means
// to move the emitted code.
const codeDigestFile = "testdata/golden/code.digest"

// codeDigest renders bin's digest and summary as they appear in the file.
func codeDigest(bin *machine.Prog) string {
	h := fnv.New64a()
	fmt.Fprintln(h, bin.String())
	for i := range bin.Instrs {
		// Field by field, in the order the hashed text has always had,
		// whatever order the struct declares them in, and as the 96-byte
		// record held them (instruction layout 1).
		in := &bin.Instrs[i]
		l := layout1Fields(in)
		fmt.Fprintf(h, "{Addr:%v Size:%v Kind:%v Op:%v Bin:%v Dst:%v A:%v B:%v C:%v Value:%v GlobalOff:%v Index:%v Target:%v BranchNeg:%v CalleeID:%v ArgRegs:%v CounterID:%v Loc:%v} %s\n",
			in.Addr, machine.SizeOf(in.Kind), in.Kind, in.Op, in.Bin, in.Dst, in.A, l.b, in.C, in.Value, l.globalOff, l.index,
			in.Target, in.BranchNeg, l.calleeID, bin.Args(in), l.counterID, (*ir.Loc)(nil), in.Loc)
	}
	for _, f := range bin.Funcs {
		fmt.Fprintf(h, "%+v\n", *f)
	}
	for _, p := range bin.Probes {
		fmt.Fprintf(h, "%s %d %d %g %s %d\n", p.Func, p.ID, p.Kind, p.Factor, p.InlinedAt, p.Addr)
	}
	return fmt.Sprintf("%016x %s", h.Sum64(), bin)
}

// layout1 is what the 96-byte machine.Instr held in the fields the
// 64-byte one merged or moved: one field per table index, and the index
// register of a load or store apart from B, which those left 0.
type layout1 struct {
	b, globalOff, index, calleeID, counterID int32
}

// layout1Fields reads in's layout-1 fields back from Ref and B.
func layout1Fields(in *machine.Instr) layout1 {
	l := layout1{b: in.B}
	switch in.Kind {
	case machine.KLoad, machine.KStore:
		l.b, l.globalOff, l.index = 0, in.Ref, in.B
	case machine.KCall, machine.KTailCall:
		l.calleeID = in.Ref
	case machine.KCounter:
		l.counterID = in.Ref
	}
	return l
}

// opt.stats pins what the optimizer did to get there: one line per program
// and variant, "program variant {Stats}", the %+v of the opt.Stats of the
// build Pipeline returns. checkCodeDigest checks and rewrites it with
// code.digest, so a refactor of opt that moves a counter but not the code
// still shows.
const optStatsFile = "testdata/golden/opt.stats"

// checkCodeDigest builds the program under all five variants and compares
// each binary with its line of code.digest and each build's opt.Stats with
// its line of opt.stats.
func checkCodeDigest(t *testing.T, name string, files []*source.File, train [][]int64) {
	t.Helper()
	update := os.Getenv("UPDATE_GOLDEN") == "1"
	digests := readGoldenLines(t, codeDigestFile, update) // "program variant" -> "fnv64 summary"
	stats := readGoldenLines(t, optStatsFile, update)     // "program variant" -> "{Stats}"
	for _, v := range []Variant{Baseline, AutoFDO, ProbeOnly, FullCS, InstrPGO} {
		res, _, err := Pipeline(files, v, train)
		if err != nil {
			t.Fatal(err)
		}
		key := name + " " + string(v)
		for _, g := range []struct {
			lines     map[string]string
			what, got string
		}{
			{digests, "code digest", codeDigest(res.Bin)},
			{stats, "opt stats", fmt.Sprintf("%+v", *res.Stats)},
		} {
			if update {
				g.lines[key] = g.got
			} else if g.got != g.lines[key] {
				t.Errorf("%s: %s %s, want %s", key, g.what, g.got, g.lines[key])
			}
		}
	}
	if update {
		writeGoldenLines(t, codeDigestFile, digests)
		writeGoldenLines(t, optStatsFile, stats)
	}
}

// readGoldenLines reads a "program variant rest" file into a map keyed by
// "program variant"; a missing file is an error unless it is about to be
// written.
func readGoldenLines(t *testing.T, path string, update bool) map[string]string {
	t.Helper()
	lines := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil && !update {
		t.Fatal(err)
	}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if f := strings.SplitN(l, " ", 3); len(f) == 3 {
			lines[f[0]+" "+f[1]] = f[2]
		}
	}
	return lines
}

// writeGoldenLines writes lines back in sorted order, one per key.
func writeGoldenLines(t *testing.T, path string, lines map[string]string) {
	t.Helper()
	var out []string
	for k, v := range lines {
		out = append(out, k+" "+v+"\n")
	}
	sort.Strings(out)
	if err := os.WriteFile(path, []byte(strings.Join(out, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden is the one table: for each kind, the profile the engine
// generates from the program's training run must equal the golden bytes for
// every worker count and chunk size, both from a materialized sample slice
// and through the live-sink driver, and the CS UnwindStats must match; and
// the binary each of the five variants builds must match code.digest.
func checkGolden(t *testing.T, name string, files []*source.File, train [][]int64) {
	t.Helper()
	checkCodeDigest(t, name, files, train)
	golden := func(suffix string) string {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+"."+suffix))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	probed, err := Build(files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(files, BuildConfig{Probes: false})
	if err != nil {
		t.Fatal(err)
	}
	wantStats := golden("cs.stats")
	lbrOnly := DefaultProfileConfig()
	lbrOnly.Stacks = false
	for _, kind := range []struct {
		name    string
		variant Variant
		build   *BuildResult
		pc      ProfileConfig
	}{
		{"cs", FullCS, probed, DefaultProfileConfig()},
		{"probe", ProbeOnly, probed, lbrOnly},
		{"autofdo", AutoFDO, plain, lbrOnly},
	} {
		want := golden(kind.name + ".prof")
		bin := kind.build.Bin
		samples, _, err := CollectSamples(bin, train, kind.pc)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 0} {
			for _, chunk := range []int{1, 7, 0} {
				var got *profdata.Profile
				switch kind.variant {
				case FullCS:
					opts := sampling.DefaultCSSPGOOptions()
					opts.Workers, opts.ChunkSize = workers, chunk
					var st sampling.UnwindStats
					got, st = sampling.GenerateCSSPGO(bin, samples, opts)
					if s := fmt.Sprintf("%+v\n", st); s != wantStats {
						t.Errorf("%s: workers=%d chunk=%d: UnwindStats %swant %s", name, workers, chunk, s, wantStats)
					}
				case ProbeOnly:
					got = sampling.GenerateProbeProfile(bin, samples, sampling.FlatOptions{Workers: workers, ChunkSize: chunk})
				case AutoFDO:
					got = sampling.GenerateAutoFDO(bin, samples, sampling.FlatOptions{Workers: workers, ChunkSize: chunk})
				}
				if profdata.EncodeToString(got) != want {
					t.Errorf("%s/%s: workers=%d chunk=%d differs from golden", name, kind.name, workers, chunk)
				}
			}
			pc := DefaultProfileConfig()
			pc.Workers = workers
			got, st, _, err := CollectAndGenerate(bin, kind.variant, train, pc)
			if err != nil {
				t.Fatal(err)
			}
			if profdata.EncodeToString(got) != want {
				t.Errorf("%s/%s: workers=%d live-sink driver differs from golden", name, kind.name, workers)
			}
			if s := fmt.Sprintf("%+v\n", st); kind.variant == FullCS && s != wantStats {
				t.Errorf("%s: workers=%d live-sink driver: UnwindStats %swant %s", name, workers, s, wantStats)
			}
		}
	}
}

// TestParallelProfilesByteIdenticalOnAllWorkloads pins the engine's output
// on the whole workload corpus against the golden files, for every
// generator, worker count and chunk size.
func TestParallelProfilesByteIdenticalOnAllWorkloads(t *testing.T) {
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, w.Files, w.Train)
		})
	}
}

// TestUnwindStatsWorkerInvariantOnExamples does the same for every module
// under examples/, whose golden UnwindStats also pin the stats contract:
// context-resolution stats are per-lookup replays of a per-context delta, so
// any split of the sample stream across workers and chunks must reduce to
// the same sums.
func TestUnwindStatsWorkerInvariantOnExamples(t *testing.T) {
	for _, dir := range []string{"quickstart", "contextsensitivity", "indirectcalls", "sourcedrift", "overheadtuning"} {
		t.Run(dir, func(t *testing.T) {
			mods, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.ml"))
			if err != nil || len(mods) == 0 {
				t.Fatalf("no modules under examples/%s (%v)", dir, err)
			}
			for _, path := range mods {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				file := filepath.Base(path)
				f, err := source.Parse(file, string(data))
				if err != nil {
					t.Fatalf("parse %s: %v", path, err)
				}
				checkGolden(t, dir+"."+strings.TrimSuffix(file, ".ml"), []*source.File{f}, SeededRequests(60, 1, 1000))
			}
		})
	}
}

// TestBuildDeterministicOnExamples: the same source must compile to the
// same instruction stream every time — the golden profiles are keyed to the
// training binary. LICM and tail merging used to visit blocks in map order,
// which made examples/contextsensitivity come out 60 or 61 instructions long
// from one run to the next.
func TestBuildDeterministicOnExamples(t *testing.T) {
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) == 0 {
		t.Fatalf("no example modules (%v)", err)
	}
	for _, path := range mods {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for i := 0; i < 30; i++ {
			f, err := source.Parse(filepath.Base(path), string(data))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Build([]*source.File{f}, BuildConfig{Probes: true})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, in := range res.Bin.Instrs {
				fmt.Fprintf(&sb, "%d %d %d\n", in.Addr, in.Kind, in.Ref)
			}
			if i == 0 {
				want = sb.String()
			} else if sb.String() != want {
				t.Fatalf("%s: build %d differs from build 0", path, i)
			}
		}
	}
}
