package inference_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"csspgo/internal/inference"
	"csspgo/internal/ir"
	"csspgo/internal/pgo"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// corpusSolves is every profiled function of the 14-program corpus (the 7
// workloads and the 7 examples/ modules), solved by both solvers. Each
// program is built FullCS with the pre-inliner's decisions and inference
// off, so its IR carries what the post-inline inference pass is handed:
// raw counts on the functions that stayed out of line, merged and scaled
// ones where the inliners ran.
var corpusSolves = sync.OnceValues(func() (map[string][]inference.Solved, error) {
	type program struct {
		name  string
		files []*source.File
		train [][]int64
	}
	var programs []program
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			return nil, err
		}
		programs = append(programs, program{name, w.Files, w.Train})
	}
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil {
		return nil, err
	}
	sort.Strings(mods)
	for _, path := range mods {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := source.Parse(filepath.Base(path), string(data))
		if err != nil {
			return nil, err
		}
		name := filepath.Base(filepath.Dir(path)) + "." + strings.TrimSuffix(filepath.Base(path), ".ml")
		programs = append(programs, program{name, []*source.File{f}, pgo.SeededRequests(60, 1, 1000)})
	}

	out := map[string][]inference.Solved{}
	for _, p := range programs {
		base, err := pgo.Build(p.files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return nil, err
		}
		prof, err := pgo.CollectProfileFor(base, pgo.FullCS, p.train)
		if err != nil {
			return nil, err
		}
		build, err := pgo.Build(p.files, pgo.BuildConfig{
			Probes: true, Profile: prof, UsePreInlineDecisions: true, DisableInference: true,
		})
		if err != nil {
			return nil, err
		}
		for _, f := range build.IR.Functions() {
			if profiled(f) {
				out[p.name] = append(out[p.name], inference.SolveBoth(f))
			}
		}
	}
	return out, nil
})

func profiled(f *ir.Function) bool {
	for _, b := range f.Blocks {
		if b.HasWeight {
			return true
		}
	}
	return false
}

// TestSolverMatchesReferenceCost: canceling a cycle as soon as it closes
// may pick another of several equal-cost optima than the exhaustive
// reference, never a dearer one — on the 50 seed-42 random CFGs and on
// every profiled function of the corpus the two circulations cost the
// same, the flows conserve, and no solve comes near the augmentation valve.
func TestSolverMatchesReferenceCost(t *testing.T) {
	check := func(t *testing.T, what string, s inference.Solved) {
		t.Helper()
		if s.Cost != s.RefCost {
			t.Errorf("%s: circulation costs %d, the reference's %d", what, s.Cost, s.RefCost)
		}
		if s.Violations != 0 {
			t.Errorf("%s: %d flow-conservation violations", what, s.Violations)
		}
		if s.Augmentations >= inference.MaxAugmentations {
			t.Errorf("%s: %d augmentations reached the valve", what, s.Augmentations)
		}
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			f := inference.RandomCFG(rng, 3+rng.Intn(10))
			check(t, fmt.Sprintf("trial %d", trial), inference.SolveBoth(f))
		}
	})
	corpus, err := corpusSolves()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 14 {
		t.Fatalf("corpus has %d profiled programs, want 14", len(corpus))
	}
	for name, solves := range corpus {
		t.Run(name, func(t *testing.T) {
			for _, s := range solves {
				check(t, name, s)
			}
		})
	}
}

// TestSolverRoundsPinned pins the solver's work over the corpus as a count:
// a search ends at the round its cycle closes, so an augmentation costs two
// or three Bellman-Ford rounds where the reference, sweeping all n rounds
// first, pays about eighty. A return to n rounds per augmentation fails
// here without a timer. The totals move only with the solver, the cost
// model or the corpus; update them together with flows_pinned.txt.
func TestSolverRoundsPinned(t *testing.T) {
	const wantSolves, wantAugmentations, wantRounds = 111, 604, 1820
	corpus, err := corpusSolves()
	if err != nil {
		t.Fatal(err)
	}
	var solves, augs, maxAugs, rounds, refAugs, refRounds int
	for _, ss := range corpus {
		for _, s := range ss {
			solves++
			augs += s.Augmentations
			maxAugs = max(maxAugs, s.Augmentations)
			rounds += s.Rounds
			refAugs += s.RefAugmentations
			refRounds += s.RefRounds
		}
	}
	t.Logf("%d solves: %d rounds for %d augmentations, at most %d a solve (reference: %d for %d)",
		solves, rounds, augs, maxAugs, refRounds, refAugs)
	if solves != wantSolves || augs != wantAugmentations || rounds != wantRounds {
		t.Errorf("solver work moved: %d solves, %d augmentations, %d rounds; pinned %d, %d, %d",
			solves, augs, rounds, wantSolves, wantAugmentations, wantRounds)
	}
	if per := float64(rounds) / float64(augs+solves); per > 4 {
		t.Errorf("%.1f rounds per augmentation + solve: cycles are no longer canceled when they close", per)
	}
}
