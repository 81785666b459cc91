package experiments

import (
	"fmt"
	"strings"

	"csspgo/internal/drift"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/workloads"
)

// This file is the fault-injection harness for the degradation ladder: it
// measures, on the Fig. 6 corpus, how much of the fresh-profile speedup
// survives when the profile has gone stale (source drift between profiling
// and compiling) or when the profile artifact itself is damaged. Each drift
// cell compares three builds of the *same* mutated program — fresh profile,
// stale profile with matching disabled (drop-stale), stale profile with the
// anchor matcher — against its unprofiled baseline.

// ------------------------------------------------------------ drift matrix

// driftCell is one workload × mutation measurement. Improvements are
// percentage cycle reductions over the unprofiled (probed, -O2) build of the
// mutated program; positive = faster. Recovered fractions are each stale
// variant's share of the fresh-profile improvement (1.0 = no loss).
type driftCell struct {
	Workload string
	Mutation drift.Mutation

	FreshImpr float64 // re-profiled after the edit: the ceiling
	DropImpr  float64 // stale profile, matching off: today's baseline
	MatchImpr float64 // stale profile, anchor matching on

	DropRecovered  float64
	MatchRecovered float64

	// Ladder occupancy in the matched build.
	MatchedFuncs      int
	FlatFallbackFuncs int
	MatchQuality      float64 // mean over MatchedFuncs
}

// driftMatrixResult is the full matrix.
type driftMatrixResult struct {
	Rows []driftCell
}

// driftMatrix measures graceful degradation under source drift across
// the five server workloads and every mutation kind.
func driftMatrix(scale int) (*driftMatrixResult, error) {
	return runDriftMatrix(workloads.ServerNames(), drift.All(), scale, 11)
}

func runDriftMatrix(names []string, muts []drift.Mutation, scale int, seed uint64) (*driftMatrixResult, error) {
	out := &driftMatrixResult{}
	for _, name := range names {
		w, err := workloads.Load(name, scale)
		if err != nil {
			return nil, err
		}
		// The stale profile: a full CS profile trained on the PRE-edit
		// program, exactly what a production profile store would serve after
		// the developer's change lands.
		oldBase, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return nil, fmt.Errorf("%s: pre-edit build: %w", name, err)
		}
		oldProf, err := pgo.CollectProfileFor(oldBase, pgo.FullCS, w.Train)
		if err != nil {
			return nil, fmt.Errorf("%s: pre-edit profile: %w", name, err)
		}
		for _, m := range muts {
			cell, err := runDriftCell(w, oldProf, m, seed)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, m, err)
			}
			out.Rows = append(out.Rows, cell)
		}
	}
	return out, nil
}

// runDriftCell builds and evaluates one mutated program under the three
// profile regimes.
func runDriftCell(w *workloads.Workload, oldProf *profdata.Profile, m drift.Mutation, seed uint64) (driftCell, error) {
	cell := driftCell{Workload: w.Name, Mutation: m}
	mfiles := drift.Apply(w.Files, m, seed)

	// The unprofiled probed build is both the improvement baseline and the
	// training binary for the fresh profile.
	base, baseStats, err := buildEval(mfiles, pgo.BuildConfig{Probes: true}, w.Eval)
	if err != nil {
		return cell, fmt.Errorf("baseline: %w", err)
	}
	freshProf, err := pgo.CollectProfileFor(base, pgo.FullCS, w.Train)
	if err != nil {
		return cell, fmt.Errorf("fresh profile: %w", err)
	}

	// Optimize clones the profile it consumes, so one collection can feed
	// several builds directly.
	impr := func(prof *profdata.Profile, staleMatching bool) (float64, *pgo.BuildResult, error) {
		res, stats, err := buildEval(mfiles, pgo.BuildConfig{
			Probes:                true,
			Profile:               prof,
			UsePreInlineDecisions: true,
			StaleMatching:         staleMatching,
		}, w.Eval)
		if err != nil {
			return 0, nil, err
		}
		return -pct(stats.Cycles, baseStats.Cycles), res, nil
	}

	if cell.FreshImpr, _, err = impr(freshProf, false); err != nil {
		return cell, fmt.Errorf("fresh build: %w", err)
	}
	if cell.DropImpr, _, err = impr(oldProf, false); err != nil {
		return cell, fmt.Errorf("drop-stale build: %w", err)
	}
	var matched *pgo.BuildResult
	if cell.MatchImpr, matched, err = impr(oldProf, true); err != nil {
		return cell, fmt.Errorf("matched build: %w", err)
	}
	cell.MatchedFuncs = matched.Stats.MatchedFuncs
	cell.FlatFallbackFuncs = matched.Stats.FlatFallbackFuncs
	cell.MatchQuality = matched.Stats.MatchQuality
	if cell.FreshImpr > 0 {
		cell.DropRecovered = cell.DropImpr / cell.FreshImpr
		cell.MatchRecovered = cell.MatchImpr / cell.FreshImpr
	}
	return cell, nil
}

func (r *driftMatrixResult) String() string {
	var sb strings.Builder
	sb.WriteString("Drift matrix — % cycle improvement over unprofiled build of the mutated program\n")
	fmt.Fprintf(&sb, "%-12s %-16s %8s %8s %8s %9s %9s %8s %8s\n",
		"workload", "mutation", "fresh", "drop", "match", "drop rec", "match rec", "matched", "quality")
	for _, c := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %-16s %+8.2f %+8.2f %+8.2f %9.2f %9.2f %8d %8.2f\n",
			c.Workload, c.Mutation, c.FreshImpr, c.DropImpr, c.MatchImpr,
			c.DropRecovered, c.MatchRecovered, c.MatchedFuncs, c.MatchQuality)
	}
	return sb.String()
}

// ------------------------------------------------------- corruption matrix

// corruptionCell is one workload × corruption × encoding measurement: the
// profile artifact is damaged, decoded leniently and the surviving counts
// (with stale matching on) drive a build. DecodeOK=false means even the
// lenient reader had to give up (header destroyed) and the build ran
// unprofiled — the bottom of the ladder, never a crash.
type corruptionCell struct {
	Workload   string
	Corruption drift.Corruption
	Format     string // "text" or "binary"

	DecodeOK       bool
	SkippedRecords int
	SkippedLines   int

	FreshImpr float64 // undamaged profile: the ceiling
	Impr      float64 // corrupted profile, stale matching on
}

// corruptionMatrixResult is the full matrix.
type corruptionMatrixResult struct {
	Rows []corruptionCell
}

// corruptionMatrix measures graceful degradation under profile-artifact
// corruption across the five server workloads, both encodings and every
// corruption kind.
func corruptionMatrix(scale int) (*corruptionMatrixResult, error) {
	return runCorruptionMatrix(workloads.ServerNames(), drift.AllCorruptions(), scale, 17)
}

func runCorruptionMatrix(names []string, corruptions []drift.Corruption, scale int, seed uint64) (*corruptionMatrixResult, error) {
	out := &corruptionMatrixResult{}
	for _, name := range names {
		w, err := workloads.Load(name, scale)
		if err != nil {
			return nil, err
		}
		base, baseStats, err := buildEval(w.Files, pgo.BuildConfig{Probes: true}, w.Eval)
		if err != nil {
			return nil, fmt.Errorf("%s: baseline: %w", name, err)
		}
		prof, err := pgo.CollectProfileFor(base, pgo.FullCS, w.Train)
		if err != nil {
			return nil, fmt.Errorf("%s: profile: %w", name, err)
		}
		freshImpr, err := profiledImprovement(w, prof, baseStats.Cycles)
		if err != nil {
			return nil, fmt.Errorf("%s: fresh build: %w", name, err)
		}
		encodings := map[string][]byte{
			"text":   profdata.AppendText(nil, prof),
			"binary": profdata.EncodeBinary(prof),
		}
		for _, format := range []string{"text", "binary"} {
			for _, c := range corruptions {
				cell := corruptionCell{
					Workload:   name,
					Corruption: c,
					Format:     format,
					FreshImpr:  freshImpr,
				}
				data := drift.Corrupt(encodings[format], c, seed)
				damaged, stats, err := profdata.DecodeLenient(data)
				if err == nil {
					cell.DecodeOK = true
					cell.SkippedRecords = stats.SkippedRecords
					cell.SkippedLines = stats.SkippedLines
					cell.Impr, err = profiledImprovement(w, damaged, baseStats.Cycles)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/%s: corrupted build: %w", name, format, c, err)
					}
				}
				out.Rows = append(out.Rows, cell)
			}
		}
	}
	return out, nil
}

// profiledImprovement builds the workload with the given profile (stale
// matching on, so damaged records degrade down the ladder instead of
// poisoning the build) and returns its % cycle improvement over base.
func profiledImprovement(w *workloads.Workload, prof *profdata.Profile, baseCycles uint64) (float64, error) {
	_, stats, err := buildEval(w.Files, pgo.BuildConfig{
		Probes:                true,
		Profile:               prof,
		UsePreInlineDecisions: true,
		StaleMatching:         true,
	}, w.Eval)
	if err != nil {
		return 0, err
	}
	return -pct(stats.Cycles, baseCycles), nil
}

func (r *corruptionMatrixResult) String() string {
	var sb strings.Builder
	sb.WriteString("Corruption matrix — % cycle improvement over unprofiled build (damaged profile, stale matching on)\n")
	fmt.Fprintf(&sb, "%-12s %-14s %-7s %7s %8s %8s %8s\n",
		"workload", "corruption", "format", "decode", "skipped", "fresh", "damaged")
	for _, c := range r.Rows {
		decode := "ok"
		if !c.DecodeOK {
			decode = "FAIL"
		}
		fmt.Fprintf(&sb, "%-12s %-14s %-7s %7s %8d %+8.2f %+8.2f\n",
			c.Workload, c.Corruption, c.Format, decode,
			c.SkippedRecords+c.SkippedLines, c.FreshImpr, c.Impr)
	}
	return sb.String()
}
