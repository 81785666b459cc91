package opt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/codegen"
	"csspgo/internal/drift"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// The passes with a workspace of their own, for tests that run one pass
// over one function.

func dce(f *ir.Function) int { return new(workspace).dce(f) }

func licm(f *ir.Function) int { return new(workspace).licm(f) }

func unroll(f *ir.Function, p unrollParams) int { return new(workspace).unroll(f, p) }

func layout(f *ir.Function) bool { return new(workspace).layout(f) }

func simplifyCFG(f *ir.Function, tailMerge bool, barrier BarrierStrength) simplifyResult {
	return new(workspace).simplifyCFG(f, tailMerge, barrier)
}

func ifConvert(f *ir.Function, barrier BarrierStrength, maxArmInstrs int) (converted, blocked int) {
	return new(workspace).ifConvert(f, barrier, maxArmInstrs)
}

// TestUsedWorkspaceBuildsTheSame runs the training build, the optimizing
// build and two stale-matching rebuilds of drifted sources of every
// workload twice: in a workspace of its own, and in one workspace that the
// largest workload's builds, and every build before, have already grown and
// left dirty. The IR, the emitted code and the Stats must be identical.
func TestUsedWorkspaceBuildsTheSame(t *testing.T) {
	type input struct {
		name  string
		files []*source.File
		prof  *profdata.Profile
		size  int
	}
	var inputs []input
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := lowerProbed(t, w.Files)
		size := 0
		for _, f := range p.Functions() {
			size += realSize(f)
		}
		inputs = append(inputs, input{name, w.Files, trainCS(t, p, w.Train), size})
	}
	slices.SortStableFunc(inputs, func(a, b input) int { return b.size - a.size })

	used := new(workspace)
	for _, in := range inputs {
		for _, c := range []struct {
			what  string
			files []*source.File
			prof  *profdata.Profile
		}{
			{"optimizing build", in.files, in.prof},
			{"training build", in.files, nil},
			{"rebuild with inserted statements", drift.Apply(in.files, drift.InsertStmts, 1), in.prof},
			{"rebuild with added branches", drift.Apply(in.files, drift.AddBranches, 1), in.prof},
		} {
			build := func(ws *workspace) (string, string, string) {
				p := lowerProbed(t, c.files)
				cfg := &Config{Profile: c.prof, Barrier: BarrierWeak, StaleMatching: true, CSHotContextThreshold: 2}
				st, err := optimize(p, cfg, ws)
				if err != nil {
					t.Fatal(err)
				}
				bin, err := codegen.Lower(p, codegen.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return p.String(), binaryText(bin), fmt.Sprintf("%+v", *st)
			}
			wantIR, wantBin, wantStats := build(new(workspace))
			gotIR, gotBin, gotStats := build(used)
			what := in.name + " " + c.what
			if gotIR != wantIR {
				t.Errorf("%s in a used workspace: IR differs:\n%s", what, analysis.DiffLines(wantIR, gotIR))
			}
			if gotBin != wantBin {
				t.Errorf("%s in a used workspace: emitted code differs", what)
			}
			if gotStats != wantStats {
				t.Errorf("%s in a used workspace: stats %s, want %s", what, gotStats, wantStats)
			}
		}
	}
}

// lowerProbed lowers files and inserts probes, as a probed build does.
func lowerProbed(t *testing.T, files []*source.File) *ir.Program {
	t.Helper()
	p, err := irgen.Lower(files...)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	return p
}

// trainCS compiles a clone of p as a training build, runs requests on it
// under the PMU sampler and returns the CS profile of the samples.
func trainCS(t *testing.T, p *ir.Program, requests [][]int64) *profdata.Profile {
	t.Helper()
	p = ir.CloneProgram(p)
	if _, err := Optimize(p, &Config{}); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	for _, r := range requests {
		if _, err := m.Run(r...); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())
	return prof
}

// binaryText renders every instruction, symbol and probe record of bin,
// source locations by value.
func binaryText(bin *machine.Prog) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, bin.String())
	for i := range bin.Instrs {
		in := bin.Instrs[i]
		loc := in.Loc
		in.Loc = nil
		fmt.Fprintf(&sb, "%+v %s\n", in, loc)
	}
	for _, f := range bin.Funcs {
		fmt.Fprintf(&sb, "%+v\n", *f)
	}
	for _, p := range bin.Probes {
		fmt.Fprintf(&sb, "%s %d %d %g %s %d\n", p.Func, p.ID, p.Kind, p.Factor, p.InlinedAt, p.Addr)
	}
	return sb.String()
}
