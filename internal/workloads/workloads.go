// Package workloads synthesizes the evaluation programs standing in for the
// paper's production services (§IV.A). Each generator produces MiniLang
// sources (multiple modules, as ThinLTO would see) plus seeded train/eval
// request streams, and encodes the trait that makes its real counterpart
// interesting for PGO:
//
//	adranker    — feature scorers sharing math utilities whose behaviour
//	              branches on a mode argument: context-sensitivity target.
//	adretriever — staged retrieval pipeline with tail-call delegation and
//	              recursive index descent: TCE / missing-frame target.
//	adfinder    — branchy predicate matching with switch dispatch: layout
//	              and source-drift target.
//	hhvm        — a bytecode interpreter with a big dispatch loop and many
//	              handlers: i-cache pressure, the instrumentable workload.
//	haas        — recursive expression evaluator with a dense dynamic call
//	              graph: context-explosion / trimming target.
//	clangish    — many small single-pass functions with short runs: the
//	              client workload with limited sampling coverage.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"csspgo/internal/source"
)

// Workload is a ready-to-build benchmark program with request streams.
type Workload struct {
	Name  string
	Files []*source.File
	Train [][]int64
	Eval  [][]int64
}

// rng is a small deterministic xorshift64 generator.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r) | 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// stream builds n requests of the given arity with bounded magnitudes.
func stream(seed uint64, n, arity int, bound int64) [][]int64 {
	r := rng(seed)
	out := make([][]int64, n)
	for i := range out {
		req := make([]int64, arity)
		for j := range req {
			req[j] = int64(r.next() % uint64(bound))
		}
		out[i] = req
	}
	return out
}

// generators maps workload names to constructors. scale multiplies the
// request stream lengths (1 = unit tests, larger for experiments).
var generators = map[string]func(scale int) (*Workload, error){
	"adranker":    genAdRanker,
	"adretriever": genAdRetriever,
	"adfinder":    genAdFinder,
	"hhvm":        genHHVM,
	"haas":        genHaaS,
	"clangish":    genClangish,
	"dispatcher":  genDispatcher,
}

// ServerNames returns the five server workloads in evaluation order.
func ServerNames() []string {
	return []string{"adranker", "adretriever", "adfinder", "hhvm", "haas"}
}

// AllNames returns every workload name, sorted.
func AllNames() []string {
	names := make([]string, 0, len(generators))
	for n := range generators {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Load builds the named workload at the given request-stream scale.
func Load(name string, scale int) (*Workload, error) {
	gen, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, AllNames())
	}
	if scale < 1 {
		scale = 1
	}
	return gen(scale)
}

// parse converts module name → source text pairs into files.
func parse(name string, modules map[string]string) ([]*source.File, error) {
	keys := make([]string, 0, len(modules))
	for k := range modules {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	files := make([]*source.File, 0, len(keys))
	for _, k := range keys {
		f, err := source.Parse(k, modules[k])
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, k, err)
		}
		files = append(files, f)
	}
	return files, nil
}

func sb() *strings.Builder { return &strings.Builder{} }
