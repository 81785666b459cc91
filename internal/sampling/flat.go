package sampling

import (
	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// FlatOptions configures flat (context-insensitive) profile generation.
type FlatOptions struct {
	// Workers sizes the address-counting worker pool (0 = GOMAXPROCS,
	// 1 = serial). Any worker count produces a byte-identical profile.
	Workers int
	// ChunkSize is the per-chunk sample count the Generate* functions feed a
	// materialized sample slice in (0 = the whole slice as one chunk). Output
	// is byte-identical for any value; the tests vary it.
	ChunkSize int
	// Trace receives the generation span tree (nil = no tracing).
	Trace *obs.Span
	// Metrics receives the profilegen.* metrics (nil = no publication).
	Metrics *obs.Registry
}

// lineLoc keys a debug frame by its line offset from the function's start
// line. Inlined frames can carry lines that precede the surrounding
// function's start line (the inlined callee's body keeps its own source
// lines); a raw subtraction would go negative and corrupt the offset key
// space, so such frames are attributed to the function entry (offset 0).
func lineLoc(fr machine.Frame, fn *machine.Func) profdata.LocKey {
	off := fr.Line - fn.StartLine
	if off < 0 {
		off = 0
	}
	return profdata.LocKey{ID: off, Disc: fr.Disc}
}

// GenerateAutoFDO builds a context-insensitive, line-keyed profile from LBR
// samples using debug-info correlation — the state-of-the-art sampling PGO
// baseline. Body locations are (line offset from function start,
// discriminator). Where several binary instructions map to one source
// location (code motion, duplication), the MAX count is taken: the
// heuristic the paper explains is right for motion into colder regions but
// wrong for duplication, where counts should be summed (§III.A).
func GenerateAutoFDO(bin *machine.Prog, samples []sim.Sample, opts FlatOptions) *profdata.Profile {
	st := NewFlatStream(bin, opts)
	feedSlice(st, samples, opts.ChunkSize)
	return st.FinishAutoFDO()
}

// generateAutoFDOFrom is the attribution half of AutoFDO generation, over
// the address counts and indirect-call histogram a FlatStream aggregated.
func generateAutoFDOFrom(bin *machine.Prog, ac *AddrCounter, icalls map[uint64]map[string]uint64, opts FlatOptions, samples int) *profdata.Profile {
	asp := opts.Trace.Span("sampling.attribute_lines")
	p := profdata.New(profdata.LineBased, false)

	// Indirect-call targets come from the LBR records themselves (a call
	// branch's To names the callee) — the sampled analogue of value
	// profiling, with sampling's coverage limits.
	for site, targets := range icalls {
		frames := bin.InlinedFramesAt(site)
		if len(frames) == 0 {
			continue
		}
		fn := bin.FuncByName[frames[0].Func]
		if fn == nil {
			continue
		}
		loc := lineLoc(frames[0], fn)
		fp := p.FuncProfile(frames[0].Func)
		for callee, n := range targets {
			fp.AddCall(loc, callee, n)
		}
	}

	ac.each(func(addr, count uint64) {
		frames := bin.InlinedFramesAt(addr)
		if len(frames) == 0 {
			return
		}
		leaf := frames[0]
		fn := bin.FuncByName[leaf.Func]
		if fn == nil {
			return
		}
		loc := lineLoc(leaf, fn)
		fp := p.FuncProfile(leaf.Func)
		if cur := fp.BodyAt(loc); count > cur {
			fp.TotalSamples += count - cur
			fp.Blocks[loc] = count
		}
		// Call-target counts at call instructions.
		in := bin.InstrAt(addr)
		if in.Kind == machine.KCall || in.Kind == machine.KTailCall {
			callee := bin.Funcs[in.CalleeID].Name
			fp.AddCall(loc, callee, count)
			// AddCall does not touch TotalSamples.
		}
	})

	// Head samples: entry-instruction count approximates entries.
	for _, fn := range bin.Funcs {
		if fp, ok := p.Funcs[fn.Name]; ok {
			fp.HeadSamples = ac.Count(fn.Start)
		}
	}
	asp.End()
	publishProfileShape(opts.Metrics, p, samples)
	return p
}

// GenerateProbeProfile builds a context-insensitive, probe-keyed profile
// from LBR samples using pseudo-probe correlation ("probe-only CSSPGO").
// Counts of duplicated probe copies are SUMMED (scaled by each copy's
// duplication factor), which is exact under code duplication — the
// correlation advantage probes have over debug info. Function CFG checksums
// from the profiled binary are recorded so stale profiles are detectable.
func GenerateProbeProfile(bin *machine.Prog, samples []sim.Sample, opts FlatOptions) *profdata.Profile {
	st := NewFlatStream(bin, opts)
	feedSlice(st, samples, opts.ChunkSize)
	return st.FinishProbe()
}

// generateProbeProfileFrom is the attribution half of probe-profile
// generation.
func generateProbeProfileFrom(bin *machine.Prog, ac *AddrCounter, icalls map[uint64]map[string]uint64, opts FlatOptions, samples int) *profdata.Profile {
	asp := opts.Trace.Span("sampling.attribute_probes")
	p := profdata.New(profdata.ProbeBased, false)
	base := func(rec *machine.ProbeRec) *profdata.FunctionProfile {
		return p.FuncProfile(rec.Func)
	}
	attributeProbes(bin, ac, base)
	attributeICallTargets(bin, icalls, base)
	asp.End()
	fsp := opts.Trace.Span("sampling.finalize")
	finalizeProbeProfile(bin, p)
	fsp.End()
	publishProfileShape(opts.Metrics, p, samples)
	return p
}

// attributeICallTargets adds sampled indirect-call target counts (a merged
// site → callee → count histogram) under the call probes anchored at each
// site.
func attributeICallTargets(bin *machine.Prog, targets map[uint64]map[string]uint64, pick func(*machine.ProbeRec) *profdata.FunctionProfile) {
	for site, ts := range targets {
		for _, rec := range bin.ProbesAt(site) {
			if rec.Kind != ir.ProbeCall {
				continue
			}
			rec := rec
			fp := pick(&rec)
			for callee, n := range ts {
				fp.AddCall(profdata.LocKey{ID: rec.ID}, callee, n)
			}
		}
	}
}

// attributeProbes walks every probe metadata record, computes its count
// from the address counter, and adds it to the profile selected by pick.
func attributeProbes(bin *machine.Prog, ac *AddrCounter, pick func(*machine.ProbeRec) *profdata.FunctionProfile) {
	for i := range bin.Probes {
		rec := &bin.Probes[i]
		raw := ac.Count(rec.Addr)
		if raw == 0 {
			continue
		}
		count := uint64(float64(raw)*rec.Factor + 0.5)
		if count == 0 {
			continue
		}
		fp := pick(rec)
		loc := profdata.LocKey{ID: rec.ID}
		switch rec.Kind {
		case ir.ProbeBlock:
			fp.AddBody(loc, count)
		case ir.ProbeCall:
			in := bin.InstrAt(rec.Addr)
			if in != nil && (in.Kind == machine.KCall || in.Kind == machine.KTailCall) {
				fp.AddCall(loc, bin.Funcs[in.CalleeID].Name, count)
			}
		}
	}
}

// finalizeProbeProfile fills head samples (entry-block probe counts) and
// binary checksums into every base profile.
func finalizeProbeProfile(bin *machine.Prog, p *profdata.Profile) {
	for name, fp := range p.Funcs {
		fp.HeadSamples = fp.BodyAt(profdata.LocKey{ID: 1})
		if sum, ok := bin.Checksums[name]; ok {
			fp.Checksum = sum
		}
	}
	for _, fp := range p.Contexts {
		fp.HeadSamples = fp.BodyAt(profdata.LocKey{ID: 1})
		if sum, ok := bin.Checksums[fp.Name]; ok {
			fp.Checksum = sum
		}
	}
}

// GenerateInstrProfile converts instrumentation counters into an exact
// probe-keyed profile (the ground truth used by Instr PGO and by the
// block-overlap quality metric).
func GenerateInstrProfile(bin *machine.Prog, counters []uint64) *profdata.Profile {
	return GenerateInstrProfileWithValues(bin, counters, nil)
}

// GenerateInstrProfileWithValues additionally folds in exact value
// profiles: per-site indirect-call target histograms collected by the
// instrumented run (sim.Machine.ValueProfile). This is instrumentation
// PGO's value-profiling advantage — complete target distributions where
// sampling sees only what the LBR happened to capture.
func GenerateInstrProfileWithValues(bin *machine.Prog, counters []uint64, vprof map[uint64]map[int32]uint64) *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, false)
	for i, key := range bin.CounterKeys {
		if counters[i] == 0 {
			continue
		}
		p.FuncProfile(key.Func).AddBody(profdata.LocKey{ID: key.ID}, counters[i])
	}
	for site, targets := range vprof {
		for _, rec := range bin.ProbesAt(site) {
			if rec.Kind != ir.ProbeCall {
				continue
			}
			fp := p.FuncProfile(rec.Func)
			for calleeID, n := range targets {
				if int(calleeID) < len(bin.Funcs) {
					fp.AddCall(profdata.LocKey{ID: rec.ID}, bin.Funcs[calleeID].Name, n)
				}
			}
		}
	}
	finalizeProbeProfile(bin, p)
	return p
}
