package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// row is one measured metric of one workload.
type row struct {
	Metric string  `json:"metric"`
	Kind   string  `json:"kind"` // "end_to_end", "per_layer", or "info" for rows outside BENCHMARK.json
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`

	Median float64 `json:"median"`
	// High is the value at percentile P, the highest percentile with at
	// least ten samples beyond it (P = 50 when there are too few samples).
	High float64 `json:"high"`
	P    float64 `json:"p"`
	N    int     `json:"n"`
	Q1   float64 `json:"q1"`
	Q3   float64 `json:"q3"`
}

// newRow summarizes the samples of one metric.
func newRow(spec metricSpec, kind string, samples []float64) row {
	p := highPercentile(len(samples))
	return row{
		Metric: spec.Name, Kind: kind, Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound, Exact: spec.exact,
		Median: median(samples), High: quantile(samples, p/100), P: p, N: len(samples),
		Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75),
	}
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Rows      []row              `json:"rows"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Golden    string             `json:"golden"` // "checked" or "skipped"
	Shares    map[string]float64 `json:"layer_shares,omitempty"`
}

func (r *runResult) find(metric string) *row {
	for i := range r.Rows {
		if r.Rows[i].Metric == metric {
			return &r.Rows[i]
		}
	}
	return nil
}

// print writes the human-readable table of one run.
func (r *runResult) print(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s) ==\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "%-36s %-11s %16s %16s %6s\n", "metric", "unit", "median", "high", "n")
	for _, x := range r.Rows {
		fmt.Fprintf(w, "%-36s %-11s %16.6g %10.6g p%-4g %6d\n", x.Metric, x.Unit, x.Median, x.High, x.P, x.N)
	}
	if len(r.Shares) > 0 {
		layers := make([]string, 0, len(r.Shares))
		for l := range r.Shares {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return r.Shares[layers[i]] > r.Shares[layers[j]] })
		fmt.Fprintf(w, "self time of the timed reps by layer:")
		for _, l := range layers {
			fmt.Fprintf(w, "  %s %.1f%%", l, 100*r.Shares[l])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "checked operations: %d attempted, %d failed; golden digests: %s\n", r.Attempted, r.Failed, r.Golden)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// contractLine is the one-line JSON object the driver reads last.
func (r *runResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, x := range r.Rows {
		if x.Kind != "info" {
			out.Metrics[x.Metric] = value{Value: x.Median, Unit: x.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // only non-finite floats can fail, and the rows hold none
	}
	return string(data)
}

// resultsFile is what -o writes and -compare reads.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func writeResults(path string, runs []*runResult) error {
	data, err := json.MarshalIndent(resultsFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Verdicts of a comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the spread inside a run exceeds the bound
	verdictChanged    = "changed"    // an exact row moved, within its bound
)

// judge compares one end-to-end row of a base run with the same row of
// another run, by the row's own bound.
func judge(base, other row) (verdict string, ratio float64) {
	ratio = other.Median / base.Median
	worsening := ratio - 1 // share of the base by which the row got worse
	if base.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case worsening > base.Bound:
		return verdictWorse, ratio
	case base.Exact && other.Median == base.Median:
		return verdictSame, ratio
	case base.Exact:
		return verdictChanged, ratio
	case spread(base) > base.Bound || spread(other) > base.Bound:
		return verdictUnresolved, ratio
	case worsening < -base.Bound:
		return verdictBetter, ratio
	}
	return verdictSame, ratio
}

// spread is the distance between the quartiles as a share of the median.
func spread(x row) float64 {
	if x.Median == 0 {
		return 0
	}
	return math.Abs(x.Q3-x.Q1) / math.Abs(x.Median)
}

// compare prints one line per workload and end-to-end metric of two result
// files and reports whether any row got worse than its bound allows. Exact
// rows that moved at all are marked "changed": between two runs of one
// commit that is a determinism failure, between two commits it is the
// number to explain.
func compare(basePath, otherPath string, w io.Writer) (worse bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	other, err := readResults(otherPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-20s %-7s %14s %14s %8s  %s\n", "workload", "metric", "unit", "base", "other", "ratio", "verdict")
	for _, b := range base.Runs {
		if b.Traced {
			continue
		}
		var o *runResult
		for _, cand := range other.Runs {
			if cand.Workload == b.Workload && !cand.Traced {
				o = cand
			}
		}
		if o == nil {
			return false, fmt.Errorf("%s has no untraced run of %s", otherPath, b.Workload)
		}
		if b.Seed != o.Seed {
			return false, fmt.Errorf("%s: seeds differ (%d and %d); exact rows only compare at one seed", b.Workload, b.Seed, o.Seed)
		}
		if b.Failed > 0 || o.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: base %d of %d, other %d of %d\n", b.Workload, b.Failed, b.Attempted, o.Failed, o.Attempted)
			worse = worse || o.Failed > b.Failed
		}
		for _, br := range b.Rows {
			or := o.find(br.Metric)
			if or == nil {
				return false, fmt.Errorf("%s: %s has no row %s", b.Workload, otherPath, br.Metric)
			}
			if br.Kind == "info" {
				fmt.Fprintf(w, "%-14s %-20s %-7s %14.6g %14.6g %8.4f  not gated\n",
					b.Workload, br.Metric, br.Unit, br.Median, or.Median, or.Median/br.Median)
				continue
			}
			verdict, ratio := judge(br, *or)
			fmt.Fprintf(w, "%-14s %-20s %-7s %14.6g %14.6g %8.4f  %s (bound %.3g of %.6g)\n",
				b.Workload, br.Metric, br.Unit, br.Median, or.Median, ratio, verdict, br.Bound, br.Median)
			worse = worse || verdict == verdictWorse
		}
	}
	return worse, nil
}
