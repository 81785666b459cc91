package pgo

import (
	"fmt"
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/workloads"
)

// TestPipelineMatchesBuildCollectBuild pins Pipeline to the three steps it
// stands for: a training Build, CollectProfileFor on its binary and an
// optimizing Build from that profile, each lowering the source on its own.
// Pipeline lowers once and compiles clones that share the Loc and Probe
// payloads of the lowered program, so a pass that mutates a shared payload
// in place shows here as a difference in the profile, the binary, the
// statistics or the IR. Pipeline keeps no snapshot of the lowered program,
// so its FreshIR is nil; the lowering it compiles is held to the optimizing
// Build's FreshIR instead.
func TestPipelineMatchesBuildCollectBuild(t *testing.T) {
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{AutoFDO, ProbeOnly, FullCS, InstrPGO} {
			res, prof, err := Pipeline(w.Files, v, w.Train)
			if err != nil {
				t.Fatalf("%s %s: %v", name, v, err)
			}
			if res.FreshIR != nil {
				t.Errorf("%s %s: Pipeline kept a FreshIR snapshot", name, v)
			}
			probes := v != AutoFDO
			trainCfg := BuildConfig{Probes: probes, Instrument: v == InstrPGO}
			lowered, err := lower(w.Files, trainCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Build(w.Files, trainCfg)
			if err != nil {
				t.Fatal(err)
			}
			wantProf, err := CollectProfileFor(base, v, w.Train)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(w.Files, BuildConfig{Probes: probes, Profile: wantProf, UsePreInlineDecisions: v == FullCS})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ what, got, want string }{
				{"profile", profdata.EncodeToString(prof), profdata.EncodeToString(wantProf)},
				{"code digest", codeDigest(res.Bin), codeDigest(want.Bin)},
				{"opt stats", fmt.Sprintf("%+v", *res.Stats), fmt.Sprintf("%+v", *want.Stats)},
				{"lowered IR", lowered.String(), want.FreshIR.String()},
				{"optimized IR", res.IR.String(), want.IR.String()},
			} {
				if c.got != c.want {
					t.Errorf("%s %s: Pipeline's %s differs from Build → CollectProfileFor → Build's", name, v, c.what)
				}
			}
		}
	}
}

// TestCollectProfileForMatchesTimed holds CollectProfileFor's untimed
// training run to the timed one: on every workload and profiled variant,
// the profile it returns encodes to the same bytes as a CollectAndGenerate
// of the same build, followed for FullCS by TrimAndPreInline.
func TestCollectProfileForMatchesTimed(t *testing.T) {
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{AutoFDO, ProbeOnly, FullCS, InstrPGO} {
			base, err := Build(w.Files, BuildConfig{Probes: v != AutoFDO, Instrument: v == InstrPGO})
			if err != nil {
				t.Fatal(err)
			}
			got, err := CollectProfileFor(base, v, w.Train)
			if err != nil {
				t.Fatal(err)
			}
			want, _, stats, err := CollectAndGenerate(base.Bin, v, w.Train, DefaultProfileConfig())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Cycles == 0 {
				t.Fatalf("%s %s: CollectAndGenerate's run was not timed", name, v)
			}
			if v == FullCS {
				TrimAndPreInline(want, base.Bin, 0)
			}
			if profdata.EncodeToString(got) != profdata.EncodeToString(want) {
				t.Errorf("%s %s: CollectProfileFor's profile differs from the timed CollectAndGenerate's", name, v)
			}
		}
	}
}
