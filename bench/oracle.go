package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"csspgo"
	"csspgo/internal/codegen"
	"csspgo/internal/drift"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// The oracle has three tiers, from the one that moves with the code under
// test to the one that cannot:
//
//  1. the O0 reference: every measured binary must return, request by
//     request, what the unoptimized, unprobed, unprofiled build of the same
//     source returns;
//  2. golden digests of those O0 outputs, frozen for seeds 1 and 2, so that a
//     change of semantics in irgen, codegen or sim cannot move reference and
//     subject together;
//  3. hand-written programs with results worked out on paper, which pin the
//     trunk shared by tiers 1 and 2 to something no compiler produced.

//go:embed testdata
var testdata embed.FS

// check counts operations whose result the bench verified.
type check struct {
	attempted, failed int
	failures          []string // the first few, for the report
	// References that had, and had not, a frozen digest to be checked
	// against.
	goldenChecked, goldenSkipped int
}

// op records one checked operation; the message is built only on failure.
func (c *check) op(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 10 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// call records an operation that fails by returning an error.
func (c *check) call(err error, what string) bool {
	return c.op(err == nil, "%s: %v", what, err)
}

// reference builds the O0 binary: lowered and emitted with no optimizer, no
// probes and no profile, so it depends on none of the layers a performance
// change is likely to touch.
func reference(files []*source.File) (*machine.Prog, error) {
	prog, err := irgen.Lower(files...)
	if err != nil {
		return nil, err
	}
	return codegen.Lower(prog, codegen.Options{StripProbeMeta: true})
}

// runOutputs runs the requests in order on a fresh machine (globals persist
// across requests, so order and one machine per binary are part of the
// semantics) and returns main's result per request.
func runOutputs(bin *machine.Prog, requests [][]int64) ([]int64, sim.Stats, error) {
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	outs := make([]int64, len(requests))
	for i, req := range requests {
		v, err := m.Run(req...)
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("request %d %v: %w", i, req, err)
		}
		outs[i] = v
	}
	return outs, m.Stats(), nil
}

// product is one binary a workload produced, with the stream to evaluate it
// on and the reference results for that stream.
type product struct {
	label string
	bin   *machine.Prog
	eval  [][]int64
	want  []int64
}

// exactRows are the metrics that must repeat bit for bit.
type exactRows struct {
	cyclesPerReq float64 // geometric mean over the products
	codeSize     int     // machine instructions, summed
	instructions uint64  // simulated instructions of the eval runs, summed
}

// evaluate runs every product on its eval stream, counts one checked
// operation per request, and returns the exact rows.
func evaluate(products []product, chk *check, tr *tracer) exactRows {
	var rows exactRows
	perProgram := make([]float64, 0, len(products))
	for _, p := range products {
		sp := tr.begin("sim.eval", p.label)
		outs, stats, err := runOutputs(p.bin, p.eval)
		tr.end(sp)
		if !chk.call(err, "eval "+p.label) {
			continue
		}
		for i := range p.want {
			chk.op(outs[i] == p.want[i], "%s: request %d %v returned %d, reference %d", p.label, i, p.eval[i], outs[i], p.want[i])
		}
		perProgram = append(perProgram, float64(stats.Cycles)/float64(len(p.eval)))
		rows.codeSize += len(p.bin.Instrs)
		rows.instructions += stats.Instructions
	}
	rows.cyclesPerReq = geomean(perProgram)
	return rows
}

// digest is the FNV-1a hash of the outputs, as hex.
func digest(outs []int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range outs {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// goldenSeeds are the seeds whose reference digests are frozen: 1 is the
// development seed, 2 the held-out one.
var goldenSeeds = []uint64{1, 2}

const goldenPath = "testdata/golden.json"

// golden holds the frozen digests, keyed "seed=N/program[/mutation]".
type golden map[string]string

func goldenKey(seed uint64, label string) string { return fmt.Sprintf("seed=%d/%s", seed, label) }

func loadGolden() (golden, error) {
	data, err := testdata.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	g := golden{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// check compares a reference's outputs with the frozen digest. Other seeds
// have nothing frozen, and that is counted as skipped, never as passed.
func (g golden) check(seed uint64, label string, want []int64, chk *check) {
	frozen, ok := g[goldenKey(seed, label)]
	if !ok {
		chk.goldenSkipped++
		return
	}
	chk.goldenChecked++
	got := digest(want)
	chk.op(got == frozen, "golden %s: O0 outputs digest %s, frozen %s", goldenKey(seed, label), got, frozen)
}

// staleMutations are the source edits of the stale-rebuild workload. Each
// preserves semantics, so the O0 build of the edited source is a valid
// reference for a binary built from it with the pristine profile.
var staleMutations = []drift.Mutation{drift.InsertStmts, drift.AddBranches, drift.RemoveBranches, drift.ReorderFuncs}

// updateGolden recomputes every frozen digest and writes the file; dir is the
// bench's source directory.
func updateGolden(dir string) error {
	g := golden{}
	for _, seed := range goldenSeeds {
		for _, name := range allPrograms {
			files, err := loadProgram(name)
			if err != nil {
				return err
			}
			eval := stream(name, seed+evalSeedOffset, evalRequests)
			variants := map[string][]*source.File{name: files}
			if slices.Contains(serverPrograms, name) {
				for _, m := range staleMutations {
					variants[name+"/"+m.String()] = drift.Apply(files, m, seed)
				}
			}
			for label, fs := range variants {
				ref, err := reference(fs)
				if err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				outs, _, err := runOutputs(ref, eval)
				if err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				g[goldenKey(seed, label)] = digest(outs)
			}
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+goldenPath, append(data, '\n'), 0o644)
}

// anchorVariants are the five builds every hand-written program must
// survive, besides the O0 path.
var anchorVariants = []pgo.Variant{pgo.Baseline, pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS, pgo.InstrPGO}

// anchorTrainRepeat repeats the few hand-written requests so that the
// sampling variants see a profile that is not empty.
const anchorTrainRepeat = 10

// anchor is one hand-written program with its hand-computed results.
type anchor struct {
	name     string
	source   string
	requests [][]int64
	want     []int64
}

// loadAnchors reads testdata/handwritten: NAME.ml holds the program and
// NAME.expected one "a b => result" line per request.
func loadAnchors() ([]anchor, error) {
	const dir = "testdata/handwritten"
	entries, err := testdata.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []anchor
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".ml")
		if !ok {
			continue
		}
		src, err := testdata.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return nil, err
		}
		exp, err := testdata.ReadFile(dir + "/" + name + ".expected")
		if err != nil {
			return nil, err
		}
		a := anchor{name: name, source: string(src)}
		for n, line := range strings.Split(string(exp), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			var x, y, want int64
			if _, err := fmt.Sscanf(line, "%d %d => %d", &x, &y, &want); err != nil {
				return nil, fmt.Errorf("%s.expected line %d: %w", name, n+1, err)
			}
			a.requests = append(a.requests, []int64{x, y})
			a.want = append(a.want, want)
		}
		if len(a.requests) == 0 {
			return nil, fmt.Errorf("%s.expected: no requests", name)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no programs", dir)
	}
	return out, nil
}

// checkAnchors runs every hand-written program through the O0 path and all
// five variants and compares against the hand-computed results. It runs
// before any timing; a mismatch means irgen, codegen or sim changed
// semantics, and nothing measured after it could be trusted.
func checkAnchors(chk *check) error {
	anchors, err := loadAnchors()
	if err != nil {
		return err
	}
	for _, a := range anchors {
		mods := []csspgo.Module{{Name: a.name + ".ml", Source: a.source}}
		files, err := csspgo.Parse(mods)
		if err != nil {
			return fmt.Errorf("anchor %s: %w", a.name, err)
		}
		type labelled struct {
			label string
			bin   *machine.Prog
		}
		ref, err := reference(files)
		if err != nil {
			return fmt.Errorf("anchor %s: O0: %w", a.name, err)
		}
		bins := []labelled{{"O0", ref}}
		var train [][]int64
		for i := 0; i < anchorTrainRepeat; i++ {
			train = append(train, a.requests...)
		}
		for _, v := range anchorVariants {
			res, _, err := csspgo.BuildVariant(mods, v, train)
			if err != nil {
				return fmt.Errorf("anchor %s: %s: %w", a.name, v, err)
			}
			bins = append(bins, labelled{string(v), res.Bin})
		}
		for _, b := range bins {
			outs, _, err := runOutputs(b.bin, a.requests)
			if err != nil {
				return fmt.Errorf("anchor %s: %s: %w", a.name, b.label, err)
			}
			for i, want := range a.want {
				chk.op(outs[i] == want, "anchor %s (%s): request %v returned %d, hand-computed %d", a.name, b.label, a.requests[i], outs[i], want)
			}
		}
	}
	return nil
}
