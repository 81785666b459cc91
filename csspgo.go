// Package csspgo is a from-scratch reproduction of "Revamping
// Sampling-Based PGO with Context-Sensitivity and Pseudo-Instrumentation"
// (CGO 2024): a complete profile-guided-optimization stack — MiniLang
// frontend, CFG IR, optimizer, machine-code backend, cycle-accurate-ish CPU
// simulator with LBR/PEBS sampling, profile generation with the Algorithm 1
// virtual unwinder, MCF profile inference, the offline context-sensitive
// pre-inliner, and the evaluation regenerating the paper's tables and
// figures.
//
// This package is the public facade. A typical round trip:
//
//	mods := []csspgo.Module{{Name: "app.ml", Source: src}}
//	res, prof, err := csspgo.BuildVariant(mods, csspgo.FullCS, train)
//	stats, err := csspgo.Run(res, eval)
//
// Lower-level building blocks (IR, passes, simulator, profilers) live in
// the internal packages; the paper's tables and figures are regenerated by
// cmd/experiments over internal/experiments.
package csspgo

import (
	"fmt"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// Module is one MiniLang source file; Name doubles as the ThinLTO-style
// module id.
type Module struct {
	Name   string
	Source string
}

// Variant selects a PGO flavour.
type Variant = pgo.Variant

// The PGO variants under study.
const (
	Baseline  = pgo.Baseline
	AutoFDO   = pgo.AutoFDO
	ProbeOnly = pgo.ProbeOnly
	FullCS    = pgo.FullCS
	InstrPGO  = pgo.InstrPGO
)

// BuildResult is a finished compilation.
type BuildResult = pgo.BuildResult

// Profile is a PGO profile (flat or context-sensitive).
type Profile = profdata.Profile

// Stats are simulator execution statistics.
type Stats = sim.Stats

// Parse parses modules into compiler input files.
func Parse(mods []Module) ([]*source.File, error) {
	files := make([]*source.File, 0, len(mods))
	for _, m := range mods {
		f, err := source.Parse(m.Name, m.Source)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("csspgo: no modules")
	}
	return files, nil
}

// BuildVariant runs the full train → profile → optimize pipeline for the
// given variant: it builds the appropriate training binary, profiles it on
// the training requests, generates the variant's profile (including
// trimming and the pre-inliner for FullCS) and produces the optimized
// binary. Baseline ignores train and returns a nil profile. The result's
// FreshIR is nil: no pre-optimization snapshot is kept (Build keeps one).
func BuildVariant(mods []Module, v Variant, train [][]int64) (*BuildResult, *Profile, error) {
	files, err := Parse(mods)
	if err != nil {
		return nil, nil, err
	}
	return pgo.Pipeline(files, v, train)
}

// Build compiles the modules once with explicit controls (no profiling
// run). See pgo.BuildConfig for the knobs.
func Build(mods []Module, cfg pgo.BuildConfig) (*BuildResult, error) {
	files, err := Parse(mods)
	if err != nil {
		return nil, err
	}
	return pgo.Build(files, cfg)
}

// BuildConfig re-exports the explicit build controls.
type BuildConfig = pgo.BuildConfig

// Run executes the binary on each request (fresh process image per call
// sequence is NOT reset — it models a long-lived server; use RunFresh for
// per-request isolation) and returns accumulated statistics.
func Run(res *BuildResult, requests [][]int64) (Stats, error) {
	return pgo.Evaluate(res.Bin, requests)
}

// RunOutputs executes the binary and returns main's results per request.
func RunOutputs(res *BuildResult, requests [][]int64) ([]int64, Stats, error) {
	m := sim.New(res.Bin, sim.DefaultCostParams(), sim.PMUConfig{})
	outs := make([]int64, 0, len(requests))
	for _, req := range requests {
		v, err := m.Run(req...)
		if err != nil {
			return nil, sim.Stats{}, err
		}
		outs = append(outs, v)
	}
	return outs, m.Stats(), nil
}

// CollectProfile profiles an existing training build and generates the
// profile the given variant would consume (nil for Baseline).
func CollectProfile(res *BuildResult, v Variant, train [][]int64) (*Profile, error) {
	return pgo.CollectProfileFor(res, v, train)
}

// EncodeProfile renders a profile in the text format; DecodeProfileAny
// parses it back.
func EncodeProfile(p *Profile) string { return profdata.EncodeToString(p) }

// EncodeProfileBinary renders the compact binary profile format;
// DecodeProfileAny parses either format by auto-detection.
func EncodeProfileBinary(p *Profile) []byte { return profdata.EncodeBinary(p) }

// DecodeProfileAny parses a profile in either the text or the binary
// format, auto-detected by magic.
func DecodeProfileAny(data []byte) (*Profile, error) { return profdata.Decode(data) }

// Binary is the compiled machine program type (simulator input).
type Binary = machine.Prog

// Workload re-exports the synthetic evaluation workloads.
type Workload = workloads.Workload

// LoadWorkload builds one of the named evaluation workloads
// ("adranker", "adretriever", "adfinder", "hhvm", "haas", "clangish") at
// the given request-stream scale.
func LoadWorkload(name string, scale int) (*Workload, error) {
	return workloads.Load(name, scale)
}

// ServerWorkloads lists the five server workloads in evaluation order.
func ServerWorkloads() []string { return workloads.ServerNames() }
