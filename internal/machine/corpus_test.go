package machine_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// corpusProgram is one program of the 14-program corpus (the 7 workloads
// and the 7 examples/ modules) with its training stream. The pipelines that
// build its binaries live above package machine, hence the external test
// package.
type corpusProgram struct {
	name  string
	files []*source.File
	train [][]int64
}

func loadCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusProgram{name, w.Files, w.Train})
	}
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) != 7 {
		t.Fatalf("want 7 example modules, got %d (%v)", len(mods), err)
	}
	for _, path := range mods {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := source.Parse(filepath.Base(path), string(data))
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(filepath.Dir(path)) + "." + strings.TrimSuffix(filepath.Base(path), ".ml")
		out = append(out, corpusProgram{name, []*source.File{f}, pgo.SeededRequests(60, 1, 1000)})
	}
	return out
}

// TestComputeSizesMatchesEncoders: the section sizes ComputeSizes records
// are the lengths of the bytes the section encoders write, for every corpus
// program under each of the five variants.
func TestComputeSizesMatchesEncoders(t *testing.T) {
	for _, pr := range loadCorpus(t) {
		for _, v := range []pgo.Variant{pgo.Baseline, pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS, pgo.InstrPGO} {
			res, _, err := pgo.Pipeline(pr.files, v, pr.train)
			if err != nil {
				t.Fatal(err)
			}
			bin := res.Bin
			debug, probes := bin.EncodedSectionLens()
			if bin.DebugSize != uint64(debug) || bin.ProbeMetaSize != uint64(probes) {
				t.Errorf("%s %s: DebugSize %d, ProbeMetaSize %d; the encoders write %d and %d bytes",
					pr.name, v, bin.DebugSize, bin.ProbeMetaSize, debug, probes)
			}
		}
	}
}

// lookupRef is the eagerly built answer to every lookup over one address
// window, from linear scans of the binary's tables.
type lookupRef struct {
	lo     uint64
	instr  []int
	probes [][]int
	fn     []*machine.Func
}

func newLookupRef(bin *machine.Prog) *lookupRef {
	// The window runs a little past both ends of the text, so addresses
	// outside every table are asked too.
	lo := bin.Instrs[0].Addr - 4
	hi := bin.Instrs[len(bin.Instrs)-1].Addr + 12
	for _, f := range bin.Funcs {
		hi = max(hi, f.End+4, f.ColdEnd+4)
	}
	n := int(hi - lo)
	r := &lookupRef{lo: lo, instr: make([]int, n), probes: make([][]int, n), fn: make([]*machine.Func, n)}
	for i := range r.instr {
		r.instr[i] = -1
	}
	for i := range bin.Instrs {
		r.instr[bin.Instrs[i].Addr-lo] = i
	}
	for i := range bin.Probes {
		off := bin.Probes[i].Addr - lo
		r.probes[off] = append(r.probes[off], i)
	}
	for off := range r.fn {
		for _, f := range bin.Funcs {
			if f.Contains(lo + uint64(off)) {
				r.fn[off] = f
				break
			}
		}
	}
	return r
}

// check asks bin every lookup of the window and reports the first answer
// that differs from the reference.
func (r *lookupRef) check(bin *machine.Prog) string {
	for off := range r.instr {
		addr := r.lo + uint64(off)
		if got := bin.InstrIndexAt(addr); got != r.instr[off] {
			return "InstrIndexAt"
		}
		got := bin.Index().ProbeIndicesAt(addr)
		if len(got) != len(r.probes[off]) {
			return "ProbeIndicesAt"
		}
		for i, pi := range got {
			if int(pi) != r.probes[off][i] {
				return "ProbeIndicesAt"
			}
		}
		if bin.FuncAt(addr) != r.fn[off] {
			return "FuncAt"
		}
	}
	return ""
}

// TestFirstLookupsConcurrent: many goroutines take a fresh binary's first
// InstrIndexAt, ProbeIndicesAt and FuncAt at once. Every answer must equal
// the eagerly built reference's, and under -race the first use must not
// race with itself.
func TestFirstLookupsConcurrent(t *testing.T) {
	w, err := workloads.Load("adfinder", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, probes := range []bool{false, true} {
		res, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: probes})
		if err != nil {
			t.Fatal(err)
		}
		bin := res.Bin
		ref := newLookupRef(bin)
		start := make(chan struct{})
		errs := make([]string, 8)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[g] = ref.check(bin)
			}()
		}
		close(start)
		wg.Wait()
		for g, e := range errs {
			if e != "" {
				t.Errorf("probes=%v: goroutine %d: %s differs from the reference", probes, g, e)
			}
		}
	}
}

// TestUnsampledBinaryHasNoIndex: the lookup tables are built for the
// profile generators, on their first lookup. A binary that codegen emits
// and the simulator runs, with the PMU sampling and without, and that is
// saved, never builds them.
func TestUnsampledBinaryHasNoIndex(t *testing.T) {
	w, err := workloads.Load("adfinder", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []pgo.BuildConfig{{}, {Probes: true}, {Probes: true, Instrument: true}} {
		res, err := pgo.Build(w.Files, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bin := res.Bin
		if _, err := pgo.Evaluate(bin, w.Train); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pgo.CollectSamples(bin, w.Train, pgo.DefaultProfileConfig()); err != nil {
			t.Fatal(err)
		}
		if err := bin.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
		if bin.HasIndex() {
			t.Errorf("%+v: building, running and saving the binary built its lookup tables", cfg)
		}
		bin.FuncAt(bin.EntryAddr)
		if !bin.HasIndex() {
			t.Errorf("%+v: a lookup did not build the tables", cfg)
		}
	}
}
