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
// statistics or the IR.
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
			probes := v != AutoFDO
			base, err := Build(w.Files, BuildConfig{Probes: probes, Instrument: v == InstrPGO})
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
				{"fresh IR", res.FreshIR.String(), want.FreshIR.String()},
				{"optimized IR", res.IR.String(), want.IR.String()},
			} {
				if c.got != c.want {
					t.Errorf("%s %s: Pipeline's %s differs from Build → CollectProfileFor → Build's", name, v, c.what)
				}
			}
		}
	}
}
