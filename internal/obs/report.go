package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Schema identifies the run-report manifest format. Bump the version on
// incompatible changes; DecodeReport pins it.
const Schema = "csspgo-run-report/v1"

// Stage is one pipeline stage's wall time, keyed by the span's slash-joined
// path. Stages with the same path (parallel shard workers) aggregate: their
// durations sum and Count says how many spans folded in.
type Stage struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	Count  int    `json:"count"`
}

// Report is the machine-readable run manifest: what was built (config), how
// long each stage took (stages), every metric the run published, and the
// quality scores a promotion gate recorded (fleet.Promoter is the section's
// one writer). Encoding is deterministic — after Normalize, two
// identical runs produce byte-identical manifests for any worker count.
type Report struct {
	Schema  string             `json:"schema"`
	Tool    string             `json:"tool"`
	Config  map[string]any     `json:"config,omitempty"`
	Stages  []Stage            `json:"stages,omitempty"`
	Metrics Snapshot           `json:"metrics,omitempty"`
	Quality map[string]float64 `json:"quality,omitempty"`
}

// NewReport starts a manifest for the named tool invocation.
func NewReport(tool string) *Report {
	return &Report{Schema: Schema, Tool: tool, Config: map[string]any{}, Metrics: Snapshot{}}
}

// AddTrace folds a trace into the stage table: one Stage per distinct span
// path, durations summed, sorted by path. Aggregating by path (rather than
// listing spans) keeps the stage *set* identical between serial and
// parallel runs of the same pipeline.
func (r *Report) AddTrace(t *Trace) {
	if t == nil {
		return
	}
	agg := map[string]*Stage{}
	for _, f := range flatten(t.snapshot()) {
		st := agg[f.path]
		if st == nil {
			st = &Stage{Name: f.path}
			agg[f.path] = st
		}
		st.WallNS += int64(f.s.dur)
		st.Count++
	}
	paths := make([]string, 0, len(agg))
	for p := range agg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		r.Stages = append(r.Stages, *agg[p])
	}
}

// AddMetrics merges a registry snapshot into the manifest.
func (r *Report) AddMetrics(reg *Registry) {
	if r.Metrics == nil {
		r.Metrics = Snapshot{}
	}
	r.Metrics.Merge(reg.Snapshot())
}

// Clone returns a deep copy of the manifest (Config values are copied
// shallowly: they are the scalars of a config echo).
func (r *Report) Clone() *Report {
	out := *r
	out.Config = maps.Clone(r.Config)
	out.Stages = slices.Clone(r.Stages)
	if r.Metrics != nil {
		out.Metrics = make(Snapshot, len(r.Metrics))
		for name, mv := range r.Metrics {
			mv.Buckets = slices.Clone(mv.Buckets)
			out.Metrics[name] = mv
		}
	}
	out.Quality = maps.Clone(r.Quality)
	return &out
}

// Normalize zeroes every nondeterministic field — stage wall times and
// stage counts that depend only on parallelism, plus "_ns" timing metrics —
// so byte-identity checks compare exactly the deterministic remainder.
func (r *Report) Normalize() {
	for i := range r.Stages {
		r.Stages[i].WallNS = 0
		r.Stages[i].Count = 0
	}
	for name, mv := range r.Metrics {
		if isTimingMetric(name) {
			r.Metrics[name] = MetricValue{Kind: mv.Kind}
		}
	}
}

// Encode renders the manifest as deterministic, indented JSON (object keys
// sort; a trailing newline makes the file diff-friendly).
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeReport parses a manifest and validates it against the v1 schema:
// schema pin, tool string, well-formed stage entries, and metric names
// following the namespace conventions with known kinds.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: report: not valid JSON: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("obs: report: schema %q, want %q", r.Schema, Schema)
	}
	if r.Tool == "" {
		return nil, fmt.Errorf("obs: report: missing or empty \"tool\"")
	}
	seen := map[string]bool{}
	for _, st := range r.Stages {
		if st.Name == "" {
			return nil, fmt.Errorf("obs: report: stage with empty name")
		}
		if st.WallNS < 0 || st.Count < 0 {
			return nil, fmt.Errorf("obs: report: stage %q: negative wall_ns/count", st.Name)
		}
		if seen[st.Name] {
			return nil, fmt.Errorf("obs: report: duplicate stage %q", st.Name)
		}
		seen[st.Name] = true
	}
	for name, mv := range r.Metrics {
		if err := checkMetric(name, mv.Kind); err != nil {
			return nil, fmt.Errorf("obs: report: %w", err)
		}
	}
	return &r, nil
}

// ReadReport loads and validates a manifest file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := DecodeReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Format pretty-prints one manifest for humans.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "run report: %s (%s)\n", r.Tool, r.Schema)
	if len(r.Config) > 0 {
		sb.WriteString("config:\n")
		for _, k := range sortedKeys(r.Config) {
			fmt.Fprintf(&sb, "  %-28s %v\n", k, r.Config[k])
		}
	}
	if len(r.Stages) > 0 {
		sb.WriteString("stages:\n")
		for _, st := range r.Stages {
			fmt.Fprintf(&sb, "  %-44s %12.3fms  x%d\n", st.Name, float64(st.WallNS)/1e6, st.Count)
		}
	}
	if len(r.Metrics) > 0 {
		sb.WriteString("metrics:\n")
		for _, name := range sortedKeys(r.Metrics) {
			fmt.Fprintf(&sb, "  %-44s %s\n", name, formatMetric(r.Metrics[name]))
		}
	}
	if len(r.Quality) > 0 {
		sb.WriteString("quality:\n")
		for _, name := range sortedKeys(r.Quality) {
			fmt.Fprintf(&sb, "  %-44s %.4f\n", name, r.Quality[name])
		}
	}
	return sb.String()
}

func formatMetric(mv MetricValue) string {
	switch mv.Kind {
	case kindGauge:
		return fmt.Sprintf("%.4g", mv.Gauge)
	case kindHistogram:
		return fmt.Sprintf("count=%d sum=%d min=%d max=%d p50=%d p95=%d p99=%d",
			mv.Count, mv.Sum, mv.Min, mv.Max, mv.P50, mv.P95, mv.P99)
	default:
		return fmt.Sprintf("%d", mv.Value)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultRegressionThreshold: a stage slower by more than this fraction, a
// timing metric higher, or a quality score/metric lower by more than this
// fraction, is flagged REGRESSED.
const DefaultRegressionThreshold = 0.10

// DiffResult is a rendered manifest diff plus how many entries were flagged
// REGRESSED — the count `csspgo report -diff` gates its exit code on.
type DiffResult struct {
	Text        string
	Regressions int
}

// DiffReportsThreshold renders the delta between two manifests: per-stage
// wall-time changes, per-metric deltas, and quality-score changes.
// Regressions — stages slower than threshold, timing (_ns) metrics higher,
// quality.* metrics or quality scores lower — are flagged REGRESSED and
// counted in the result.
func DiffReportsThreshold(a, b *Report, threshold float64) DiffResult {
	if threshold <= 0 {
		threshold = DefaultRegressionThreshold
	}
	var res DiffResult
	var sb strings.Builder
	fmt.Fprintf(&sb, "run report diff: %s -> %s\n", a.Tool, b.Tool)
	regressed := func() string {
		res.Regressions++
		return "  REGRESSED"
	}

	aStages, bStages := stageMap(a), stageMap(b)
	if len(aStages) > 0 || len(bStages) > 0 {
		sb.WriteString("stages (wall ms):\n")
		for _, name := range unionKeys(aStages, bStages) {
			av, bv := float64(aStages[name].WallNS)/1e6, float64(bStages[name].WallNS)/1e6
			mark := ""
			if av > 0 && bv > av*(1+threshold) {
				mark = regressed()
			}
			fmt.Fprintf(&sb, "  %-44s %12.3f -> %12.3f  %s%s\n", name, av, bv, pctChange(av, bv), mark)
		}
	}
	if len(a.Metrics) > 0 || len(b.Metrics) > 0 {
		sb.WriteString("metrics:\n")
		changed := 0
		for _, name := range unionKeys(a.Metrics, b.Metrics) {
			amv, bmv := a.Metrics[name], b.Metrics[name]
			av, bv := metricScalar(amv), metricScalar(bmv)
			quantiles := histQuantileDeltas(amv, bmv)
			if av == bv && len(quantiles) == 0 {
				continue
			}
			changed++
			mark := ""
			switch {
			case isTimingMetric(name) && av > 0 && bv > av*(1+threshold):
				mark = regressed()
			case strings.HasPrefix(name, "quality.") && bv < av*(1-threshold):
				mark = regressed()
			}
			fmt.Fprintf(&sb, "  %-44s %14.6g -> %14.6g  %s%s\n", name, av, bv, pctChange(av, bv), mark)
			// Histogram drift can hide behind an unchanged sum; surface the
			// distribution shift as percentile sublines.
			for _, q := range quantiles {
				qa, qb := float64(q.a), float64(q.b)
				qmark := ""
				if isTimingMetric(name) && qa > 0 && qb > qa*(1+threshold) {
					qmark = regressed()
				}
				fmt.Fprintf(&sb, "    %-42s %14.6g -> %14.6g  %s%s\n", name+"."+q.name, qa, qb, pctChange(qa, qb), qmark)
			}
		}
		if changed == 0 {
			sb.WriteString("  (no metric changed)\n")
		}
	}
	if len(a.Quality) > 0 || len(b.Quality) > 0 {
		sb.WriteString("quality:\n")
		for _, name := range unionKeys(a.Quality, b.Quality) {
			av, bv := a.Quality[name], b.Quality[name]
			mark := ""
			if bv < av*(1-threshold) {
				mark = regressed()
			}
			fmt.Fprintf(&sb, "  %-44s %.4f -> %.4f  %s%s\n", name, av, bv, pctChange(av, bv), mark)
		}
	}
	res.Text = sb.String()
	return res
}

func stageMap(r *Report) map[string]Stage {
	out := map[string]Stage{}
	for _, st := range r.Stages {
		out[st.Name] = st
	}
	return out
}

// quantileDelta is one changed histogram percentile.
type quantileDelta struct {
	name string
	a, b int64
}

// histQuantileDeltas lists the p50/p95/p99 changes between two metric
// values when at least one side is a histogram (empty otherwise — counters
// and gauges have no distribution to drift).
func histQuantileDeltas(a, b MetricValue) []quantileDelta {
	if a.Kind != kindHistogram && b.Kind != kindHistogram {
		return nil
	}
	var out []quantileDelta
	for _, q := range []quantileDelta{
		{"p50", a.P50, b.P50}, {"p95", a.P95, b.P95}, {"p99", a.P99, b.P99},
	} {
		if q.a != q.b {
			out = append(out, q)
		}
	}
	return out
}

// metricScalar reduces a metric value to one comparable number (histograms
// compare by sum).
func metricScalar(mv MetricValue) float64 {
	switch mv.Kind {
	case kindGauge:
		return mv.Gauge
	case kindHistogram:
		return float64(mv.Sum)
	default:
		return float64(mv.Value)
	}
}

func pctChange(a, b float64) string {
	if a == b {
		return "       ="
	}
	if a == 0 || math.IsInf(b/a, 0) {
		return "     new"
	}
	return fmt.Sprintf("%+7.1f%%", 100*(b-a)/a)
}

func unionKeys[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
