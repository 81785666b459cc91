package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// This file is a randomized semantic-preservation harness: seeded random
// MiniLang programs are compiled at every optimization configuration —
// training pipelines at all barrier strengths and full PGO pipelines with
// real collected profiles — and must produce bit-identical outputs to the
// unoptimized build on shared inputs. It is the broadest correctness net
// over the optimizer, inliners, ICP, layout, splitting and codegen.

// progGen emits random but well-formed MiniLang programs.
type progGen struct {
	rng   *rand.Rand
	sb    strings.Builder
	fns   []string // callable function names (no recursion risk: call only earlier)
	loops int
}

func (g *progGen) expr(depth int, vars []string) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprint(g.rng.Intn(100))
		case 1:
			if len(vars) > 0 {
				return vars[g.rng.Intn(len(vars))]
			}
			return fmt.Sprint(g.rng.Intn(10))
		default:
			if len(g.fns) > 0 && depth > 0 {
				fn := g.fns[g.rng.Intn(len(g.fns))]
				return fmt.Sprintf("%s(%s, %s)", fn, g.expr(0, vars), g.expr(0, vars))
			}
			return fmt.Sprint(g.rng.Intn(50))
		}
	}
	ops := []string{"+", "-", "*", "/", "%"}
	op := ops[g.rng.Intn(len(ops))]
	l := g.expr(depth-1, vars)
	r := g.expr(depth-1, vars)
	if op == "/" || op == "%" {
		// Avoid trivially-zero divisors but keep them dynamic.
		r = fmt.Sprintf("(%s + 3)", r)
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

func (g *progGen) cond(vars []string) string {
	cmps := []string{"<", "<=", ">", ">=", "==", "!="}
	c := fmt.Sprintf("%s %s %s", g.expr(1, vars), cmps[g.rng.Intn(6)], g.expr(1, vars))
	if g.rng.Intn(4) == 0 {
		c = fmt.Sprintf("%s && %s != 0", c, g.expr(1, vars))
	}
	return c
}

// assignable filters out loop induction variables (named i…): assigning
// to them inside their own loop could make the loop non-terminating.
func assignable(vars []string) []string {
	out := make([]string, 0, len(vars))
	for _, v := range vars {
		if !strings.HasPrefix(v, "i") {
			out = append(out, v)
		}
	}
	return out
}

func (g *progGen) stmts(indent string, depth int, vars []string) string {
	var sb strings.Builder
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(6) {
		case 0:
			name := fmt.Sprintf("v%d", g.rng.Int31n(1000))
			fmt.Fprintf(&sb, "%svar %s = %s;\n", indent, name, g.expr(2, vars))
			vars = append(vars, name)
		case 1:
			if av := assignable(vars); len(av) > 0 {
				fmt.Fprintf(&sb, "%s%s = %s;\n", indent, av[g.rng.Intn(len(av))], g.expr(2, vars))
			}
		case 2:
			if depth > 0 {
				fmt.Fprintf(&sb, "%sif (%s) {\n%s%s} else {\n%s%s}\n",
					indent, g.cond(vars),
					g.stmts(indent+"\t", depth-1, vars), indent,
					g.stmts(indent+"\t", depth-1, vars), indent)
			}
		case 3:
			if depth > 0 && g.loops < 4 {
				g.loops++
				iv := fmt.Sprintf("i%d", g.rng.Int31n(1000))
				fmt.Fprintf(&sb, "%sfor (var %s = 0; %s < %d; %s = %s + 1) {\n%s%s}\n",
					indent, iv, iv, 2+g.rng.Intn(4), iv, iv,
					g.stmts(indent+"\t", depth-1, append(vars, iv)), indent)
			}
		case 4:
			if depth > 0 {
				fmt.Fprintf(&sb, "%sswitch (%s %% 3) {\n%scase 0:\n%s%scase 1:\n%s%sdefault:\n%s%s}\n",
					indent, g.expr(1, vars),
					indent, g.stmts(indent+"\t", 0, vars),
					indent, g.stmts(indent+"\t", 0, vars),
					indent, g.stmts(indent+"\t", 0, vars), indent)
			}
		default:
			if av := assignable(vars); len(av) > 0 {
				fmt.Fprintf(&sb, "%s%s = %s + g0;\n", indent, av[g.rng.Intn(len(av))], g.expr(1, vars))
			}
		}
	}
	return sb.String()
}

// generate returns a full random program whose main(a, b) returns an
// input-dependent value and touches a global.
func generateProgram(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	g.sb.WriteString("global g0;\nglobal tab[8] = 1, 2, 3, 4, 5, 6, 7, 8;\n")
	nf := 2 + g.rng.Intn(4)
	for i := 0; i < nf; i++ {
		name := fmt.Sprintf("f%d", i)
		// Function bodies never call other functions (g.fns stays empty
		// while they are generated): call graphs stay one level deep so
		// random loop nests cannot multiply into runaway step counts.
		fmt.Fprintf(&g.sb, "func %s(x, y) {\n\tvar r = x;\n%s\tg0 = g0 + r %% 13;\n\treturn r + tab[y %% 8];\n}\n",
			name, g.stmts("\t", 2, []string{"x", "y", "r"}))
	}
	for i := 0; i < nf; i++ {
		g.fns = append(g.fns, fmt.Sprintf("f%d", i))
	}
	fmt.Fprintf(&g.sb, "func main(a, b) {\n\tvar s = 0;\n%s\treturn s + g0 + %s;\n}\n",
		g.stmts("\t", 3, []string{"a", "b", "s"}),
		g.expr(2, []string{"a", "b", "s"}))
	return g.sb.String()
}

func runConfig(t *testing.T, src string, build func(p *ir.Program) error, inputs [][]int64) []int64 {
	t.Helper()
	f, err := source.Parse("fuzz.ml", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	if build != nil {
		if err := build(p); err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	m.MaxSteps = 100_000_000
	var outs []int64
	for _, in := range inputs {
		m.Reset()
		v, err := m.Run(in...)
		if err != nil {
			t.Fatalf("run%v: %v", in, err)
		}
		outs = append(outs, v)
	}
	return outs
}

func TestRandomProgramsSemanticPreservation(t *testing.T) {
	seeds := []int64{1, 7, 42, 99, 1234, 5150, 90210, 31337, 2, 3, 11, 123, 777, 4242, 88888, 101010}
	if testing.Short() {
		seeds = seeds[:3]
	}
	inputs := [][]int64{{0, 0}, {1, 3}, {17, 5}, {100, 42}, {-7, 9}, {999, 1}}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generateProgram(seed)
			ref := runConfig(t, src, nil, inputs)

			check := func(name string, build func(p *ir.Program) error) {
				got := runConfig(t, src, build, inputs)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s: input %v => %d, want %d\nprogram:\n%s",
							name, inputs[i], got[i], ref[i], src)
					}
				}
			}

			check("training-none", func(p *ir.Program) error {
				_, err := Optimize(p, &Config{})
				return err
			})
			check("training-weak-probes", func(p *ir.Program) error {
				probe.InsertProgram(p)
				cfg := &Config{Barrier: BarrierWeak}
				_, err := Optimize(p, cfg)
				return err
			})
			check("training-strong-probes", func(p *ir.Program) error {
				probe.InsertProgram(p)
				cfg := &Config{Barrier: BarrierStrong}
				_, err := Optimize(p, cfg)
				return err
			})
			check("full-csspgo-pipeline", func(p *ir.Program) error {
				// Train a probed sibling, profile it, then optimize p with
				// the CS profile at full throttle. VerifyEach turns the
				// analysis suite into a per-pass fuzz oracle.
				train := runTrainingBuild(t, src)
				probe.InsertProgram(p)
				cfg := &Config{
					Profile: train, Barrier: BarrierWeak,
					CSHotContextThreshold: 2, VerifyEach: true,
				}
				if _, err := Optimize(p, cfg); err != nil {
					return err
				}
				// End-state oracle: any fuzzed program that passes ir.Verify
				// must leave the pipeline flow-conserved, since inference ran
				// after the last CFG-perturbing pass.
				if e := analysis.FirstError(analysis.CheckProgram(p, analysis.DefaultOptions())); e != nil {
					return fmt.Errorf("analysis oracle: %s", e)
				}
				return nil
			})
		})
	}
}

// runTrainingBuild builds+profiles a probed training binary of src and
// returns its CS profile.
func runTrainingBuild(t *testing.T, src string) *profdata.Profile {
	t.Helper()
	f, err := source.Parse("fuzz.ml", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	if _, err := Optimize(p, &Config{}); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	m.MaxSteps = 100_000_000
	for i := int64(0); i < 12; i++ {
		if _, err := m.Run(i*13, i); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())
	return prof
}
