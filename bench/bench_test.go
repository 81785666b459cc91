package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// smoke is the shape every test runs a workload in: training streams cut to
// a tenth, one set-up, one warm-up rep, two timed reps.
func smoke(seed uint64) options { return options{seed: seed, shrink: 10, reps: 2} }

func mustGolden(t *testing.T) golden {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAnchorsMatchHandComputedResults(t *testing.T) {
	chk := &check{}
	if err := checkAnchors(chk); err != nil {
		t.Fatal(err)
	}
	// 3 programs × (O0 + 5 variants) × at least 8 requests each.
	if chk.failed != 0 || chk.attempted < 3*6*8 {
		t.Fatalf("anchors: %d failed of %d attempted: %v", chk.failed, chk.attempted, chk.failures)
	}
}

// TestEveryWorkloadSmoke runs all five workloads end to end and traced: a
// refactor that breaks the surface the bench calls, or its determinism,
// fails here, in the change that causes it.
func TestEveryWorkloadSmoke(t *testing.T) {
	g := mustGolden(t)
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			if traced && def.name == "profile-bound" {
				continue // the traced path of build-bound with longer streams, and 6 s
			}
			o := smoke(1)
			if o.traced = traced; traced {
				o.reps = 1 // one untraced and one traced rep
			}
			res, err := measure(def, o, g)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < evalRequests {
				t.Errorf("%s traced=%v: %d failed of %d attempted: %v", def.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if res.Golden != "checked" {
				t.Errorf("%s: golden tier %q at seed 1, want checked", def.name, res.Golden)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			var rows []row // without the wall-clock rows, which are not in BENCHMARK.json
			for _, r := range res.Rows {
				if r.Kind != "info" {
					rows = append(rows, r)
				}
			}
			if len(rows) != len(specs) {
				t.Fatalf("%s traced=%v: %d rows, want %d", def.name, traced, len(rows), len(specs))
			}
			for i, r := range rows {
				if r.Metric != specs[i].Name {
					t.Errorf("%s: row %d is %s, want %s", def.name, i, r.Metric, specs[i].Name)
				}
				if !traced && !(r.Median > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", def.name, r.Metric, r.Median)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatalf("%s: contract line: %v", def.name, err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(specs) {
				t.Errorf("%s: contract line %+v does not match the result", def.name, line)
			}
		}
	}
}

// TestGoldenTier: a seed with nothing frozen reports skipped, never passed,
// and a reference that no longer matches its frozen digest is a failure.
func TestGoldenTier(t *testing.T) {
	g := mustGolden(t)
	files, err := loadProgram("haas")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed                    uint64
		frozen                  string // overrides the digest when set
		checked, skipped, fails int
	}{
		{seed: 1, checked: 1},
		{seed: 2, checked: 1},
		{seed: 3, skipped: 1},
		{seed: 1, frozen: "0", checked: 1, fails: 1},
	} {
		if tc.frozen != "" {
			g[goldenKey(tc.seed, "haas")] = tc.frozen
		}
		chk := &check{}
		eval := stream("haas", tc.seed+evalSeedOffset, evalRequests)
		if _, err := referenceOutputs("haas", files, eval, tc.seed, nil, g, chk); err != nil {
			t.Fatal(err)
		}
		if chk.goldenChecked != tc.checked || chk.goldenSkipped != tc.skipped || chk.failed != tc.fails {
			t.Errorf("seed %d frozen %q: checked %d skipped %d failed %d, want %d %d %d",
				tc.seed, tc.frozen, chk.goldenChecked, chk.goldenSkipped, chk.failed, tc.checked, tc.skipped, tc.fails)
		}
	}
}

// TestExactRowsIgnoreGOMAXPROCS pins the determinism the exact rows claim:
// the worker pool's size must not reach the profile.
func TestExactRowsIgnoreGOMAXPROCS(t *testing.T) {
	g := mustGolden(t)
	exact := func() [2]float64 {
		res, err := measure(*findWorkload("build-bound"), smoke(1), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%d failed: %v", res.Failed, res.Failures)
		}
		return [2]float64{res.find("eval_cycles_per_req").Median, res.find("code_size_instrs").Median}
	}
	wide := exact()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if serial := exact(); serial != wide {
		t.Fatalf("exact rows differ: GOMAXPROCS=%d %v, GOMAXPROCS=1 %v", prev, wide, serial)
	}
}

// TestOracleCanFail swaps the outputs one binary is expected to produce for
// another's and requires the command to notice and exit 1.
func TestOracleCanFail(t *testing.T) {
	o := smoke(1)
	o.workload = "build-bound"
	o.tamper = func(products []product) {
		products[0].want, products[1].want = products[1].want, products[0].want
	}
	var stdout, stderr bytes.Buffer
	if code := runWith(o, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d with swapped outputs, want 1\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct bool
		Failed  int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 {
		t.Fatalf("contract line reports correct=%v failed=%d", line.Correct, line.Failed)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, repS, cycles float64) string {
		r := &runResult{Workload: "build-bound", Seed: 1}
		for _, spec := range endToEnd {
			v := 1.0
			switch spec.Name {
			case "rep_cpu_s":
				v = repS
			case "eval_cycles_per_req":
				v = cycles
			}
			r.Rows = append(r.Rows, newRow(spec, "end_to_end", []float64{v}))
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, []*runResult{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1.00, 1000)
	var repBound, cycBound float64
	for _, spec := range endToEnd {
		switch spec.Name {
		case "rep_cpu_s":
			repBound = spec.Bound
		case "eval_cycles_per_req":
			cycBound = spec.Bound
		}
	}
	for _, tc := range []struct {
		name         string
		repS, cycles float64
		worse        bool
		want         string
	}{
		{"same", 1 + repBound/2, 1000, false, verdictSame},
		{"slower", 1 + 2*repBound, 1000, true, verdictWorse},
		{"faster", 1 - 2*repBound, 1000, false, verdictBetter},
		{"moved", 1.00, 1001, false, verdictChanged},
		{"regressed", 1.00, 1000 * (1 + 2*cycBound), true, verdictWorse},
	} {
		var out bytes.Buffer
		worse, err := compare(base, write(tc.name+".json", tc.repS, tc.cycles), &out)
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: worse=%v, want %v with verdict %q:\n%s", tc.name, worse, tc.worse, tc.want, out.String())
		}
	}
	// A run whose own reps spread wider than the bound resolves nothing.
	noisy := &runResult{Workload: "build-bound", Seed: 1}
	for _, spec := range endToEnd {
		noisy.Rows = append(noisy.Rows, newRow(spec, "end_to_end", []float64{0.2, 1.0, 1.0, 1.8}))
	}
	path := filepath.Join(dir, "noisy.json")
	if err := writeResults(path, []*runResult{noisy}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := compare(base, path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a spread wider than the bound was not reported as unresolved:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, which the driver
// reads, and the tables in this package, which produce the numbers, from
// drifting apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	want := benchmarkJSON()
	got, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	ga, _ := json.Marshal(a)
	gb, _ := json.Marshal(b)
	if !bytes.Equal(ga, gb) {
		t.Fatalf("BENCHMARK.json differs from the tables in bench/; the code says:\n%s", want)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	out := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, d := range workloadDefs {
		out.Workloads = append(out.Workloads, wl{d.name, d.why})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}
