// Package overhead is the cost-and-confidence observatory: it turns the
// simulator's overhead meter (per-probe increments, per-function sampling
// interrupts, value-profile updates) into a deterministic schema-versioned
// artifact, and scores profile confidence per function from sample counts
// at the configured sampling period. The paper's pseudo-instrumentation
// argument is an overhead argument — probes are "free" only if the cost
// ledger shows where every profiling cycle lands — and ROADMAP item 3's
// adaptive governor consumes exactly this ledger.
package overhead

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/sim"
)

// Schema identifies the overhead artifact format. Bump on incompatible
// changes; Validate pins it.
const Schema = "csspgo-overhead/v1"

func init() { obs.RegisterSchema(Schema, "artifact", Decode) }

// ProbeCost is the cost ledger for one instrumentation counter.
type ProbeCost struct {
	Func     string  `json:"func"`
	ID       int32   `json:"id"` // block probe id within Func
	Count    uint64  `json:"count"`
	Cycles   uint64  `json:"cycles"`
	SharePct float64 `json:"share_pct"` // share of total overhead cycles
}

// FuncCost aggregates profiling cost per function: counter increments that
// execute inside it plus sampling interrupts whose leaf PC lands in it.
type FuncCost struct {
	Func            string  `json:"func"`
	ProbeIncrements uint64  `json:"probe_increments,omitempty"`
	ProbeCycles     uint64  `json:"probe_cycles,omitempty"`
	Samples         uint64  `json:"samples,omitempty"`
	SampleCycles    uint64  `json:"sample_cycles,omitempty"`
	Cycles          uint64  `json:"cycles"`
	SharePct        float64 `json:"share_pct"` // share of total overhead cycles
}

// Totals is the run-level cost ledger. AppCycles + OverheadCycles ==
// TotalCycles, and the three mechanism tallies sum to OverheadCycles —
// Validate enforces both identities.
type Totals struct {
	TotalCycles        uint64  `json:"total_cycles"`
	AppCycles          uint64  `json:"app_cycles"`
	OverheadCycles     uint64  `json:"overhead_cycles"`
	ProbeCycles        uint64  `json:"probe_cycles"`
	SampleCycles       uint64  `json:"sample_cycles"`
	ValueProfileCycles uint64  `json:"value_profile_cycles"`
	Samples            uint64  `json:"samples"`
	ProbeIncrements    uint64  `json:"probe_increments"`
	FramesWalked       uint64  `json:"frames_walked"`
	OverheadPct        float64 `json:"overhead_pct"` // overhead vs. app cycles
}

// Report is the csspgo-overhead/v1 artifact: per-probe and per-function
// cost attribution plus optional profile-confidence scoring, rendered
// deterministically (sorted tables, fixed field order).
type Report struct {
	Schema string `json:"schema"`
	Binary string `json:"binary,omitempty"`
	Period uint64 `json:"period"`
	// Instrumented marks a counter-instrumented run (probe table populated
	// from real counter RMWs rather than empty, as on probe-only builds).
	Instrumented bool `json:"instrumented,omitempty"`
	// CollectWallNS is the collection wall time; Normalize zeroes it (the
	// only nondeterministic field).
	CollectWallNS int64             `json:"collect_wall_ns"`
	Totals        Totals            `json:"totals"`
	Probes        []ProbeCost       `json:"probes,omitempty"`
	Funcs         []FuncCost        `json:"funcs,omitempty"`
	Confidence    *ConfidenceReport `json:"confidence,omitempty"`
}

// Attribute builds the cost ledger from one metered run. All integer
// arithmetic: per-probe cycles are count*ProbeCycles/totalIncrements
// (exact, since every increment costs the same) and per-function sample
// cycles distribute SampleCycles proportionally, so two identical runs
// produce identical ledgers.
func Attribute(bin *machine.Prog, stats sim.Stats, meter *sim.OverheadMeter, period uint64) *Report {
	r := &Report{Schema: Schema, Period: period, Instrumented: bin.Instrumented}
	var probeInc uint64
	for _, n := range meter.ProbeHits {
		probeInc += n
	}
	oh := meter.OverheadCycles()
	r.Totals = Totals{
		TotalCycles:        stats.Cycles,
		AppCycles:          stats.Cycles - oh,
		OverheadCycles:     oh,
		ProbeCycles:        meter.ProbeCycles,
		SampleCycles:       meter.SampleCycles,
		ValueProfileCycles: meter.VProfCycles,
		Samples:            meter.Samples,
		ProbeIncrements:    probeInc,
		FramesWalked:       meter.FramesWalked,
		OverheadPct:        pctOf(oh, stats.Cycles-oh),
	}

	// Per-probe table: counter ID -> (func, block probe id) via the
	// binary's counter-key table.
	for id, count := range meter.ProbeHits {
		pc := ProbeCost{Func: "?", ID: id, Count: count}
		if int(id) < len(bin.CounterKeys) {
			pc.Func = bin.CounterKeys[id].Func
			pc.ID = bin.CounterKeys[id].ID
		}
		if probeInc > 0 {
			pc.Cycles = meter.ProbeCycles * count / probeInc
		}
		pc.SharePct = pctOf(pc.Cycles, oh)
		r.Probes = append(r.Probes, pc)
	}
	sort.Slice(r.Probes, func(i, j int) bool {
		a, b := r.Probes[i], r.Probes[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.ID < b.ID
	})

	// Per-function aggregation.
	funcs := map[string]*FuncCost{}
	at := func(name string) *FuncCost {
		fc := funcs[name]
		if fc == nil {
			fc = &FuncCost{Func: name}
			funcs[name] = fc
		}
		return fc
	}
	for _, pc := range r.Probes {
		fc := at(pc.Func)
		fc.ProbeIncrements += pc.Count
		fc.ProbeCycles += pc.Cycles
	}
	for name, n := range meter.FuncSamples {
		fc := at(name)
		fc.Samples += n
		if meter.Samples > 0 {
			fc.SampleCycles += meter.SampleCycles * n / meter.Samples
		}
	}
	for _, fc := range funcs {
		fc.Cycles = fc.ProbeCycles + fc.SampleCycles
		fc.SharePct = pctOf(fc.Cycles, oh)
		r.Funcs = append(r.Funcs, *fc)
	}
	sort.Slice(r.Funcs, func(i, j int) bool {
		a, b := r.Funcs[i], r.Funcs[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Func < b.Func
	})
	return r
}

// pctOf returns 100*num/den, 0 when den is 0.
func pctOf(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Normalize zeroes the wall-clock field, the only nondeterministic one;
// normalized artifacts from identical runs are byte-identical.
func (r *Report) Normalize() { r.CollectWallNS = 0 }

// Encode renders the artifact as deterministic indented JSON.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses and validates an overhead artifact.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("overhead: not valid JSON: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the artifact invariants: the schema string, the cycle
// identities (app + overhead = total; mechanisms sum to overhead), share
// bounds, and the non-increasing cycle ordering of both tables.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("overhead: schema %q, want %q", r.Schema, Schema)
	}
	t := r.Totals
	if t.AppCycles+t.OverheadCycles != t.TotalCycles {
		return fmt.Errorf("overhead: app (%d) + overhead (%d) != total (%d) cycles",
			t.AppCycles, t.OverheadCycles, t.TotalCycles)
	}
	if t.ProbeCycles+t.SampleCycles+t.ValueProfileCycles != t.OverheadCycles {
		return fmt.Errorf("overhead: mechanism cycles do not sum to overhead cycles")
	}
	check := func(table string, i int, cycles, prev uint64, share float64) error {
		if share < 0 || share > 100.0000001 {
			return fmt.Errorf("overhead: %s[%d]: share %.4f out of [0,100]", table, i, share)
		}
		if i > 0 && cycles > prev {
			return fmt.Errorf("overhead: %s[%d]: cycles not sorted non-increasing", table, i)
		}
		return nil
	}
	for i, p := range r.Probes {
		var prev uint64
		if i > 0 {
			prev = r.Probes[i-1].Cycles
		}
		if err := check("probes", i, p.Cycles, prev, p.SharePct); err != nil {
			return err
		}
	}
	for i, f := range r.Funcs {
		var prev uint64
		if i > 0 {
			prev = r.Funcs[i-1].Cycles
		}
		if err := check("funcs", i, f.Cycles, prev, f.SharePct); err != nil {
			return err
		}
	}
	if r.Confidence != nil {
		if err := r.Confidence.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the human-readable observatory report: the run ledger,
// the top-K probe and function cost tables, and the confidence summary.
// top <= 0 means all rows.
func (r *Report) Format(top int) string {
	var b strings.Builder
	t := r.Totals
	fmt.Fprintf(&b, "overhead ledger (period %d)\n", r.Period)
	fmt.Fprintf(&b, "  total cycles     %12d\n", t.TotalCycles)
	fmt.Fprintf(&b, "  app cycles       %12d\n", t.AppCycles)
	fmt.Fprintf(&b, "  overhead cycles  %12d  (%.3f%% of app)\n", t.OverheadCycles, t.OverheadPct)
	fmt.Fprintf(&b, "    probe RMW      %12d  (%d increments)\n", t.ProbeCycles, t.ProbeIncrements)
	fmt.Fprintf(&b, "    sampling PMI   %12d  (%d samples, %d frames walked)\n",
		t.SampleCycles, t.Samples, t.FramesWalked)
	fmt.Fprintf(&b, "    value profile  %12d\n", t.ValueProfileCycles)
	if len(r.Probes) > 0 {
		fmt.Fprintf(&b, "\ntop probes by cost\n")
		fmt.Fprintf(&b, "  %-24s %6s %12s %12s %7s\n", "func", "probe", "count", "cycles", "share")
		for i, p := range r.Probes {
			if top > 0 && i >= top {
				fmt.Fprintf(&b, "  ... %d more\n", len(r.Probes)-top)
				break
			}
			fmt.Fprintf(&b, "  %-24s %6d %12d %12d %6.2f%%\n", p.Func, p.ID, p.Count, p.Cycles, p.SharePct)
		}
	}
	if len(r.Funcs) > 0 {
		fmt.Fprintf(&b, "\ntop functions by profiling cost\n")
		fmt.Fprintf(&b, "  %-24s %10s %12s %12s %7s\n", "func", "samples", "probe cyc", "sample cyc", "share")
		for i, f := range r.Funcs {
			if top > 0 && i >= top {
				fmt.Fprintf(&b, "  ... %d more\n", len(r.Funcs)-top)
				break
			}
			fmt.Fprintf(&b, "  %-24s %10d %12d %12d %6.2f%%\n",
				f.Func, f.Samples, f.ProbeCycles, f.SampleCycles, f.SharePct)
		}
	}
	if r.Confidence != nil {
		b.WriteString("\n")
		b.WriteString(r.Confidence.Format(top))
	}
	return b.String()
}
