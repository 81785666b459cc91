package opt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"csspgo/internal/analysis/tv"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/obs"
	"csspgo/internal/probe"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// tvSrc exercises branches, loops, calls and globals so every injection
// kind has an eligible site.
const tvSrc = `
global g0;
global hist[4];

func main(n, seed) {
	var s = 0;
	for (var i = 0; i < n % 20 + 8; i = i + 1) {
		if (i % 3 == 0) { s = s + work(i, seed); } else { s = s - i; }
		hist[i % 4] = hist[i % 4] + 1;
	}
	g0 = g0 + s % 97;
	return s + g0;
}
func work(x, y) {
	var acc = y;
	var k = x % 5 + 1;
	while (k > 0) { acc = acc + x % 7; k = k - 1; }
	return acc;
}
`

// tvProgram lowers tvSrc with probes, ready for a training pipeline.
func tvProgram(t *testing.T) *ir.Program {
	t.Helper()
	f, err := source.Parse("tv.ml", tvSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	return p
}

// tvConfig is the training pipeline with translation validation on.
func tvConfig() *Config {
	return &Config{Barrier: BarrierWeak, VerifyEach: true, ValidateSemantics: true}
}

func TestValidateSemanticsCleanTrainingPipeline(t *testing.T) {
	p := tvProgram(t)
	cfg := tvConfig()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatalf("translation validation rejected a healthy pipeline: %v", err)
	}
	if reg.Counter(obs.MTVPassesValidated).Value() == 0 {
		t.Fatal("analysis.tv.passes_validated not published")
	}
	if reg.Counter(obs.MTVOracleRuns).Value() == 0 {
		t.Fatal("analysis.tv.oracle_runs not published")
	}
	if reg.Counter(obs.MTVViolations).Value() != 0 {
		t.Fatal("violations counted on a clean pipeline")
	}
}

func TestValidateSemanticsCleanProfiledPipeline(t *testing.T) {
	p, cfg := checkedConfig(t)
	cfg.ValidateSemantics = true
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatalf("translation validation rejected a healthy profiled pipeline: %v", err)
	}
}

// mustInjection parses an injection kind by its CLI name.
func mustInjection(t testing.TB, name string) tv.Injection {
	t.Helper()
	kind, err := tv.ParseInjection(name)
	if err != nil {
		t.Fatal(err)
	}
	return kind
}

// The miscompile-injection matrix: every kind at every always-run pass
// boundary must be detected and attributed to exactly that pass, with zero
// false negatives.
func TestMiscompileInjectionMatrix(t *testing.T) {
	passes := []string{"simplify-cfg", "dce", "inline", "licm", "unroll",
		"if-convert", "tce", "remove-unreachable", "drop-dead-functions"}
	for _, name := range tv.InjectionNames() {
		kind := mustInjection(t, name)
		for _, pass := range passes {
			kind, pass := kind, pass
			t.Run(fmt.Sprintf("%s@%s", kind, pass), func(t *testing.T) {
				p := tvProgram(t)
				cfg := tvConfig()
				applied := ""
				cfg.InjectAfter = map[string]func(*ir.Program){pass: func(p *ir.Program) {
					if d, ok := tv.Apply(p, kind, 1); ok {
						applied = d
					}
				}}
				_, err := Optimize(p, cfg)
				if applied == "" {
					t.Fatalf("no eligible injection site at %s", pass)
				}
				var pv *PassViolation
				if !errors.As(err, &pv) {
					t.Fatalf("injected %q undetected (err=%v)", applied, err)
				}
				if pv.Pass != pass {
					t.Fatalf("attributed to %q, want %q (injected %q)", pv.Pass, pass, applied)
				}
				for _, d := range pv.Diags {
					if d.Pass != pass {
						t.Fatalf("diagnostic not stamped with the pass: %v", d)
					}
				}
			})
		}
	}
}

// The satellite golden-diff check: a seeded simplify-cfg miscompile must
// produce a PassViolation whose before/after diff shows the IR change, and
// whose findings come from the tv checks (flow stays balanced by design, so
// the PR-1 flow checker must NOT be what fires).
func TestTVViolationGoldenDiff(t *testing.T) {
	p := tvProgram(t)
	cfg := tvConfig()
	cfg.InjectAfter = map[string]func(*ir.Program){"simplify-cfg": func(p *ir.Program) {
		if _, ok := tv.Apply(p, mustInjection(t, "swap-successors"), 1); !ok {
			t.Fatal("no branch to swap")
		}
	}}
	_, err := Optimize(p, cfg)
	var pv *PassViolation
	if !errors.As(err, &pv) {
		t.Fatalf("want *PassViolation, got %v", err)
	}
	if pv.Pass != "simplify-cfg" || pv.Func != "main" {
		t.Fatalf("attributed to %s/%s, want simplify-cfg/main", pv.Pass, pv.Func)
	}
	for _, d := range pv.Diags {
		if !strings.HasPrefix(d.Check, "tv-") {
			t.Fatalf("non-tv check fired on a flow-balanced miscompile: %v", d)
		}
	}
	diff := pv.Diff()
	if !strings.Contains(diff, "- ") || !strings.Contains(diff, "+ ") {
		t.Fatalf("diff shows no change:\n%s", diff)
	}
	// The swap rewrites a branch terminator: the diff must touch a br line.
	var touchedBranch bool
	for _, line := range strings.Split(diff, "\n") {
		if (strings.HasPrefix(line, "- ") || strings.HasPrefix(line, "+ ")) &&
			strings.Contains(line, "br ") {
			touchedBranch = true
		}
	}
	if !touchedBranch {
		t.Fatalf("diff does not show the rewritten branch:\n%s", diff)
	}
	if !strings.Contains(pv.Report(), "simplify-cfg") {
		t.Fatal("report does not name the pass")
	}
}

// Without ValidateSemantics, a flow-balanced miscompile sails through both
// the plain pipeline and VerifyEach — the tv tier is what catches it.
func TestFlowBalancedMiscompileNeedsTV(t *testing.T) {
	p := tvProgram(t)
	cfg := tvConfig()
	cfg.ValidateSemantics = false
	cfg.InjectAfter = map[string]func(*ir.Program){"dce": func(p *ir.Program) {
		tv.Apply(p, mustInjection(t, "swap-successors"), 1)
	}}
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatalf("VerifyEach alone should not catch a flow-balanced swap, got %v", err)
	}
}

// FuzzTranslationValidate runs the probed training pipeline under full
// translation validation on random programs: any reported violation is
// either a real miscompile or a validator false positive — both bugs.
func FuzzTranslationValidate(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 99, 1234, 31337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		w, src := workloads.Generate(seed)
		p, err := irgen.Lower(w.Files...)
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		probe.InsertProgram(p)
		cfg := tvConfig()
		if _, err := Optimize(p, cfg); err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
	})
}
