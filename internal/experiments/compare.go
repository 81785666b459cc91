package experiments

import (
	"fmt"
	"sync"

	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// variantResult is one PGO variant's outcome on a workload.
type variantResult struct {
	Variant      pgo.Variant
	Build        *pgo.BuildResult
	Profile      *profdata.Profile
	Eval         sim.Stats
	CyclesPerReq float64
}

// comparison evaluates several PGO variants on one workload with identical
// train and eval streams.
type comparison struct {
	Workload *workloads.Workload
	Results  map[pgo.Variant]*variantResult
	Order    []pgo.Variant
}

// compare trains, builds and evaluates each variant.
func compare(w *workloads.Workload, variants []pgo.Variant) (*comparison, error) {
	c := &comparison{Workload: w, Results: map[pgo.Variant]*variantResult{}}
	for _, v := range variants {
		res, prof, err := pgo.Pipeline(w.Files, v, w.Train)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, v, err)
		}
		eval, err := pgo.Evaluate(res.Bin, w.Eval)
		if err != nil {
			return nil, fmt.Errorf("%s/%s eval: %w", w.Name, v, err)
		}
		c.Results[v] = &variantResult{
			Variant:      v,
			Build:        res,
			Profile:      prof,
			Eval:         eval,
			CyclesPerReq: float64(eval.Cycles) / float64(len(w.Eval)),
		}
		c.Order = append(c.Order, v)
	}
	return c, nil
}

// improvementOver returns the percentage cycle improvement of variant v
// over the base variant (positive = v is faster).
func (c *comparison) improvementOver(base, v pgo.Variant) float64 {
	b, x := c.Results[base], c.Results[v]
	if b == nil || x == nil || b.Eval.Cycles == 0 {
		return 0
	}
	return 100 * (float64(b.Eval.Cycles) - float64(x.Eval.Cycles)) / float64(b.Eval.Cycles)
}

// sizeRatio returns variant v's text size relative to base (1.0 = equal).
func (c *comparison) sizeRatio(base, v pgo.Variant) float64 {
	b, x := c.Results[base], c.Results[v]
	if b == nil || x == nil || b.Build.Bin.TextSize == 0 {
		return 0
	}
	return float64(x.Build.Bin.TextSize) / float64(b.Build.Bin.TextSize)
}

// pipelines holds every server-corpus pipeline this process has run, keyed
// by (workload, scale, variant): Fig. 6 and Fig. 7 read the same fifteen, and
// a pipeline is deterministic, so a second run could only reproduce the first.
var pipelines = struct {
	sync.Mutex
	m map[pipelineKey]*variantResult
}{m: map[pipelineKey]*variantResult{}}

type pipelineKey struct {
	workload string
	scale    int
	variant  pgo.Variant
}

// compareServer is Compare on a named workload at a scale, running only the
// variants no earlier call has run.
func compareServer(name string, scale int, variants []pgo.Variant) (*comparison, error) {
	w, err := workloads.Load(name, scale)
	if err != nil {
		return nil, err
	}
	c := &comparison{Workload: w, Results: map[pgo.Variant]*variantResult{}, Order: variants}
	pipelines.Lock()
	defer pipelines.Unlock()
	for _, v := range variants {
		key := pipelineKey{name, scale, v}
		if pipelines.m[key] == nil {
			one, err := compare(w, []pgo.Variant{v})
			if err != nil {
				return nil, err
			}
			pipelines.m[key] = one.Results[v]
		}
		c.Results[v] = pipelines.m[key]
	}
	return c, nil
}

// buildEval compiles files under cfg and runs the result on the eval stream.
func buildEval(files []*source.File, cfg pgo.BuildConfig, eval [][]int64) (*pgo.BuildResult, sim.Stats, error) {
	res, err := pgo.Build(files, cfg)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	stats, err := pgo.Evaluate(res.Bin, eval)
	return res, stats, err
}

// pct is x's percentage excess over base.
func pct(x, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(x) - float64(base)) / float64(base)
}
