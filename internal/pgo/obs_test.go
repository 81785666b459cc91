package pgo

import (
	"bytes"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/sampling"
	"csspgo/internal/workloads"
)

// buildManifest runs one full observed build (train profile included) and
// returns the normalized, encoded run manifest.
func buildManifest(t *testing.T) []byte {
	t.Helper()
	w, err := workloads.Load("adranker", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := CollectSamples(base.Bin, w.Train, DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := sampling.GenerateCSSPGO(base.Bin, samples, csspgoOptions(ProfileConfig{Workers: 1}))

	o := NewRunObserver()
	cfg := BuildConfig{Probes: true, Profile: prof}
	o.ObserveBuild(&cfg)
	if _, err := Build(w.Files, cfg); err != nil {
		t.Fatal(err)
	}
	rep := o.Report("csspgo build", BuildConfigEcho(cfg))
	rep.Normalize()
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Two identical observed builds must produce byte-identical normalized
// manifests — the determinism contract `csspgo report` diffs rely on.
func TestRunManifestByteIdenticalAcrossRuns(t *testing.T) {
	a := buildManifest(t)
	b := buildManifest(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("normalized manifests differ across identical builds:\n%s\n----\n%s", a, b)
	}
}

// Serial and parallel profile generation must agree on the normalized
// manifest: same stage set, same metrics, with only wall times (zeroed by
// Normalize) allowed to differ.
func TestRunManifestByteIdenticalSerialVsParallel(t *testing.T) {
	w, err := workloads.Load("adranker", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) []byte {
		o := NewRunObserver()
		pc := DefaultProfileConfig()
		pc.Workers = workers
		o.ObserveProfile(&pc)
		samples, _, err := CollectSamples(base.Bin, w.Train, pc)
		if err != nil {
			t.Fatal(err)
		}
		if _, stats := sampling.GenerateCSSPGO(base.Bin, samples, csspgoOptions(pc)); stats.Samples == 0 {
			t.Fatal("no samples unwound")
		}
		rep := o.Report("csspgo profile", map[string]any{"workload": "adranker"})
		rep.Normalize()
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	for _, workers := range []int{4, 0} {
		if parallel := run(workers); !bytes.Equal(serial, parallel) {
			t.Fatalf("workers=%d normalized manifest differs from serial:\n%s\n----\n%s",
				workers, serial, parallel)
		}
	}
}

// An observed PGO build must cover the pipeline with at least the acceptance
// floor of 8 distinct spans and export a valid Chrome trace.
func TestBuildTraceCoverage(t *testing.T) {
	w, err := workloads.Load("adranker", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := CollectSamples(base.Bin, w.Train, DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := sampling.GenerateCSSPGO(base.Bin, samples, csspgoOptions(ProfileConfig{Workers: 1}))

	o := NewRunObserver()
	cfg := BuildConfig{Probes: true, Profile: prof}
	o.ObserveBuild(&cfg)
	if _, err := Build(w.Files, cfg); err != nil {
		t.Fatal(err)
	}

	want := []string{"build", "build/irgen", "build/probe_insert", "build/optimize",
		"build/optimize/opt.annotate", "build/optimize/opt.inference", "build/codegen"}
	// The run report's stage table is the trace's span paths.
	stages := o.Report("t", nil).Stages
	paths := map[string]bool{}
	for _, st := range stages {
		paths[st.Name] = true
	}
	for _, p := range want {
		if !paths[p] {
			t.Errorf("pipeline span %q missing (got %v)", p, stages)
		}
	}

	var buf bytes.Buffer
	if err := o.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateArtifact(buf.Bytes(), 8); err != nil {
		t.Fatalf("build trace below acceptance floor: %v", err)
	}
}

// A full run publishes into one registry without tripping its name checks
// (a kind conflict or a malformed name panics at registration), and both
// the profile and the build side land in it.
func TestRunRegistryClean(t *testing.T) {
	w, err := workloads.Load("adranker", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	o := NewRunObserver()
	pc := DefaultProfileConfig()
	o.ObserveProfile(&pc)
	samples, _, err := CollectSamples(base.Bin, w.Train, pc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := sampling.GenerateCSSPGO(base.Bin, samples, csspgoOptions(pc))
	cfg := BuildConfig{Probes: true, Profile: prof}
	o.ObserveBuild(&cfg)
	if _, err := Build(w.Files, cfg); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	for _, name := range []string{obs.MUnwindSamplesAccepted, obs.MAnnotateFuncs, obs.MOptInlineSample} {
		if _, ok := snap[name]; !ok {
			t.Errorf("run registry lacks %s", name)
		}
	}
}
