package overhead

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"

	"csspgo/internal/machine"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
)

// Profile-confidence scoring: a sampled profile is an estimate, and the
// estimate's relative error per function is ~1/sqrt(n) for n samples
// (Poisson counting). Joining that with probe coverage yields the three
// classes ROADMAP item 3's governor acts on: hot-confident (trust and
// optimize), hot-uncertain (densify sampling), cold-instrumented (candidate
// probes to drop).

// Confidence classes.
const (
	classHotConfident     = "hot-confident"
	classHotUncertain     = "hot-uncertain"
	classColdInstrumented = "cold-instrumented"
)

// Classification thresholds: a function is hot when it holds at least 1%
// of flattened samples, and confident when its relative-error bound is at
// most 10% (>= 100 samples).
const (
	hotSharePct  = 1.0
	maxRelErrPct = 10.0
)

// FuncConfidence is one row of the coverage/hotness heatmap.
type FuncConfidence struct {
	Func     string  `json:"func"`
	Samples  uint64  `json:"samples"`
	SharePct float64 `json:"share_pct"`
	// RelErrPct is the ~1-sigma relative-error bound 100/sqrt(n)
	// (100 when the function has no samples).
	RelErrPct float64 `json:"rel_err_pct"`
	// Coverage is the probe-coverage ratio in [0,1], or -1 when no binary
	// was available to join against (fleet-side scoring of fetched
	// profiles).
	Coverage float64 `json:"coverage"`
	Class    string  `json:"class"`
}

// ConfidenceReport scores every function of a profile at one sampling
// period. Funcs are sorted by samples (descending), then name.
type ConfidenceReport struct {
	Period           uint64           `json:"period"`
	TotalSamples     uint64           `json:"total_samples"`
	HotSharePct      float64          `json:"hot_share_pct"`   // threshold used
	MaxRelErrPct     float64          `json:"max_rel_err_pct"` // threshold used
	HotConfident     int              `json:"hot_confident"`
	HotUncertain     int              `json:"hot_uncertain"`
	ColdInstrumented int              `json:"cold_instrumented"`
	Funcs            []FuncConfidence `json:"funcs"`
}

// Score builds the confidence heatmap for a profile collected from bin at
// the given period, joining per-function probe coverage. A CS profile is
// read as its flat view, in place.
func Score(bin *machine.Prog, prof *profdata.Profile, period uint64) *ConfidenceReport {
	cov := map[string]float64{}
	if bin != nil {
		if rows, err := quality.Coverage(bin, prof); err == nil {
			for _, row := range rows {
				cov[row.Func] = row.Ratio()
			}
		}
	}
	return score(prof, cov, bin != nil, period)
}

// ScoreProfile scores a profile alone — the fleet side, where only the
// fetched profile payload is available. Coverage is reported as -1.
func ScoreProfile(prof *profdata.Profile, period uint64) *ConfidenceReport {
	return score(prof, nil, false, period)
}

func score(prof *profdata.Profile, cov map[string]float64, haveBin bool, period uint64) *ConfidenceReport {
	// Sampled functions only: a zero total is no sample.
	totals := quality.FlatFuncTotals(prof)
	maps.DeleteFunc(totals, func(_ string, n uint64) bool { return n == 0 })
	// The heatmap covers the union of sampled functions and instrumented
	// (probed) functions, so fully-cold instrumented code still shows up.
	names := map[string]bool{}
	for name := range totals {
		names[name] = true
	}
	for name := range cov {
		names[name] = true
	}
	var total uint64
	for _, n := range totals {
		total += n
	}
	r := &ConfidenceReport{
		Period: period, TotalSamples: total,
		HotSharePct: hotSharePct, MaxRelErrPct: maxRelErrPct,
	}
	for name := range names {
		n := totals[name]
		fc := FuncConfidence{
			Func: name, Samples: n,
			SharePct:  pctOf(n, total),
			RelErrPct: 100,
			Coverage:  -1,
		}
		if n > 0 {
			fc.RelErrPct = 100 / math.Sqrt(float64(n))
		}
		if haveBin {
			if c, ok := cov[name]; ok {
				fc.Coverage = c
			} else {
				fc.Coverage = 0
			}
		}
		switch {
		case fc.SharePct >= hotSharePct && fc.RelErrPct <= maxRelErrPct:
			fc.Class = classHotConfident
			r.HotConfident++
		case fc.SharePct >= hotSharePct:
			fc.Class = classHotUncertain
			r.HotUncertain++
		default:
			fc.Class = classColdInstrumented
			r.ColdInstrumented++
		}
		r.Funcs = append(r.Funcs, fc)
	}
	sort.Slice(r.Funcs, func(i, j int) bool {
		a, b := r.Funcs[i], r.Funcs[j]
		if a.Samples != b.Samples {
			return a.Samples > b.Samples
		}
		return a.Func < b.Func
	})
	return r
}

// validate checks the confidence block's internal invariants.
func (c *ConfidenceReport) validate() error {
	counted := c.HotConfident + c.HotUncertain + c.ColdInstrumented
	if counted != len(c.Funcs) {
		return fmt.Errorf("overhead: confidence class counts (%d) != rows (%d)", counted, len(c.Funcs))
	}
	for i, fc := range c.Funcs {
		switch fc.Class {
		case classHotConfident, classHotUncertain, classColdInstrumented:
		default:
			return fmt.Errorf("overhead: confidence[%d]: unknown class %q", i, fc.Class)
		}
		if i > 0 && fc.Samples > c.Funcs[i-1].Samples {
			return fmt.Errorf("overhead: confidence[%d]: samples not sorted non-increasing", i)
		}
	}
	return nil
}

// Format renders the confidence heatmap; top <= 0 means all rows.
func (c *ConfidenceReport) Format(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile confidence (period %d, %d samples; hot >= %.2f%%, confident <= %.1f%% rel err)\n",
		c.Period, c.TotalSamples, c.HotSharePct, c.MaxRelErrPct)
	fmt.Fprintf(&b, "  hot-confident %d · hot-uncertain %d · cold-instrumented %d\n",
		c.HotConfident, c.HotUncertain, c.ColdInstrumented)
	fmt.Fprintf(&b, "  %-24s %10s %7s %8s %9s %s\n", "func", "samples", "share", "rel err", "coverage", "class")
	for i, fc := range c.Funcs {
		if top > 0 && i >= top {
			fmt.Fprintf(&b, "  ... %d more\n", len(c.Funcs)-top)
			break
		}
		covStr := "-"
		if fc.Coverage >= 0 {
			covStr = fmt.Sprintf("%.2f", fc.Coverage)
		}
		fmt.Fprintf(&b, "  %-24s %10d %6.2f%% %7.2f%% %9s %s\n",
			fc.Func, fc.Samples, fc.SharePct, fc.RelErrPct, covStr, fc.Class)
	}
	return b.String()
}
