package workloads

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/opt"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
)

// generatedSeeds are the seeds the generator's tests pin and measure.
const generatedSeeds = 64

// maxStepsPerRequest is what one request of a generated program's probed
// training build may run.
const maxStepsPerRequest = 200_000

// TestGenerateIsDeterministic pins what each seed draws: one FNV-64 line
// per seed over the source text and both request streams, in
// testdata/generate.digest (UPDATE_GOLDEN=1 rewrites it, only for a change
// that means to move a program). A second draw of each seed must be the
// same.
func TestGenerateIsDeterministic(t *testing.T) {
	var got strings.Builder
	for seed := int64(0); seed < generatedSeeds; seed++ {
		w, src := Generate(seed)
		if w2, src2 := Generate(seed); src2 != src || fmt.Sprint(w2.Train, w2.Eval) != fmt.Sprint(w.Train, w.Eval) {
			t.Fatalf("seed %d draws two different programs", seed)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s%v%v", src, w.Train, w.Eval)
		fmt.Fprintf(&got, "%d %016x\n", seed, h.Sum64())
	}
	path := filepath.Join("testdata", "generate.digest")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("generated programs differ from %s (UPDATE_GOLDEN=1 rewrites it):\n%s", path, got.String())
	}
}

// shapes counts, over the seeds, the programs where something measures
// each shape the generator promises.
type shapes struct {
	crossModule, chain3, recursion, callerDependent, nestedDiamond int
}

// TestGeneratedProgramsHaveTheirShapes builds every seed's program: it must
// lower, pass Verify, and run its train and eval streams under
// maxStepsPerRequest, probed. Each shape must show in at least one program,
// measured on what the compiler and the profiler make of it:
//   - cross-module: a call whose callee lives in another module;
//   - chain of three calls: a FullCS context of four frames or more;
//   - recursion: a FullCS context in which one function has two frames;
//   - caller-dependent hot path: a FullCS profile holds two contexts of one
//     function whose hottest probes differ;
//   - nested diamond: if-conversion converts a diamond in its second sweep.
func TestGeneratedProgramsHaveTheirShapes(t *testing.T) {
	var n shapes
	var most uint64
	for seed := int64(0); seed < generatedSeeds; seed++ {
		w, src := Generate(seed)
		p, err := irgen.Lower(w.Files...)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if crossModuleCall(p) {
			n.crossModule++
		}
		prof, steps := trainFullCS(t, w, src)
		most = max(most, steps)
		chain, rec, dep := contextShapes(prof)
		if chain {
			n.chain3++
		}
		if rec {
			n.recursion++
		}
		if dep {
			n.callerDependent++
		}
		if secondSweepConverts(t, w, src) {
			n.nestedDiamond++
		}
	}
	t.Logf("of %d programs: %d cross-module, %d with a chain of 3 calls, %d recursive, %d with a caller-dependent hot path, %d with a nested diamond; at most %d steps in one request",
		generatedSeeds, n.crossModule, n.chain3, n.recursion, n.callerDependent, n.nestedDiamond, most)
	if n.crossModule == 0 || n.chain3 == 0 || n.recursion == 0 || n.callerDependent == 0 || n.nestedDiamond == 0 {
		t.Fatalf("a shape no program has: %+v", n)
	}
}

// crossModuleCall reports whether a function of p calls one of another
// module.
func crossModuleCall(p *ir.Program) bool {
	for _, f := range p.Functions() {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpCall && p.Funcs[in.Sym()] != nil && p.Funcs[in.Sym()].Module != f.Module {
					return true
				}
			}
		}
	}
	return false
}

// trainFullCS builds w's probed training binary, runs its train stream
// under the PMU and its eval stream without, each request under
// maxStepsPerRequest, and returns the train stream's FullCS profile and
// the most steps one request ran.
func trainFullCS(t *testing.T, w *Workload, src string) (*profdata.Profile, uint64) {
	t.Helper()
	p, err := irgen.Lower(w.Files...)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	if _, err := opt.Optimize(p, &opt.Config{Barrier: opt.BarrierWeak}); err != nil {
		t.Fatalf("%s: %v\n%s", w.Name, err, src)
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.Name, err, src)
	}
	var most uint64
	run := func(m *sim.Machine, reqs [][]int64) {
		m.MaxSteps = maxStepsPerRequest
		for _, req := range reqs {
			before := m.Stats().Instructions
			if _, err := m.Run(req...); err != nil {
				t.Fatalf("%s: run %v: %v\n%s", w.Name, req, err, src)
			}
			most = max(most, m.Stats().Instructions-before)
		}
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	run(m, w.Train)
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())
	run(sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{}), w.Eval)
	return prof, most
}

// contextShapes reads prof's contexts: whether one has four frames or more,
// whether one has a function twice, and whether two contexts of one
// function have different hottest probes.
func contextShapes(prof *profdata.Profile) (chain3, recursive, callerDependent bool) {
	hottest := map[string]profdata.LocKey{} // function → the hottest probe of the first context seen
	for _, fp := range prof.Contexts {
		ctx := fp.Context
		if len(ctx) >= 4 {
			chain3 = true
		}
		seen := map[string]bool{}
		for _, fr := range ctx {
			if seen[fr.Func] {
				recursive = true
			}
			seen[fr.Func] = true
		}
		var top profdata.LocKey
		var topN uint64
		for _, b := range fp.Blocks {
			if b.N > topN || b.N == topN && b.Loc.ID < top.ID {
				top, topN = b.Loc, b.N
			}
		}
		if topN == 0 {
			continue
		}
		leaf := ctx.Leaf()
		if h, ok := hottest[leaf]; !ok {
			hottest[leaf] = top
		} else if h != top {
			callerDependent = true
		}
	}
	return chain3, recursive, callerDependent
}

// secondSweepConverts builds w unprobed and reports whether if-conversion
// converted a nested diamond in a sweep after its first: a branch block
// whose arm, later in block order, is itself a branch to two blocks that
// jump to the outer diamond's join. The first sweep visits the outer branch
// while that arm still branches, so an outer branch that no longer does
// after the pass was converted by a later sweep.
func secondSweepConverts(t *testing.T, w *Workload, src string) bool {
	t.Helper()
	p, err := irgen.Lower(w.Files...)
	if err != nil {
		t.Fatal(err)
	}
	var outer []*ir.Block
	found := false
	cfg := &opt.Config{}
	cfg.InjectAfter = map[string]func(*ir.Program){
		"unroll": func(p *ir.Program) { // the pass before if-convert
			for _, f := range p.Functions() {
				outer = append(outer, nestedDiamonds(f)...)
			}
		},
		"if-convert": func(*ir.Program) {
			for _, a := range outer {
				found = found || a.Term.Kind == ir.TermJump
			}
		},
	}
	if _, err := opt.Optimize(p, cfg); err != nil {
		t.Fatalf("%s: %v\n%s", w.Name, err, src)
	}
	return found
}

// nestedDiamonds returns f's branch blocks with an arm that comes later in
// block order and branches to two blocks jumping to the other arm's
// successor.
func nestedDiamonds(f *ir.Function) []*ir.Block {
	pos := map[*ir.Block]int{}
	for i, b := range f.Blocks {
		pos[b] = i
	}
	jumpsTo := func(b *ir.Block) *ir.Block {
		if b.Term.Kind != ir.TermJump {
			return nil
		}
		return b.Term.Succs[0]
	}
	var out []*ir.Block
	for _, a := range f.Blocks {
		if a.Term.Kind != ir.TermBranch {
			continue
		}
		for k, arm := range a.Term.Succs {
			other := a.Term.Succs[1-k]
			if join := jumpsTo(other); join != nil && pos[arm] > pos[a] && arm.Term.Kind == ir.TermBranch &&
				jumpsTo(arm.Term.Succs[0]) == join && jumpsTo(arm.Term.Succs[1]) == join {
				out = append(out, a)
			}
		}
	}
	return out
}
