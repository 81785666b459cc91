package experiments

import "testing"

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, run := range map[string]func(int) (*ablationResult, error){
		"preinliner": runAblationPreInliner,
		"pebs":       runAblationPEBS,
		"inference":  runAblationInference,
		"barrier":    runAblationBarrier,
		"lbrdepth":   runAblationLBRDepth,
		"icp":        runAblationICP,
	} {
		r, err := run(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Rows) < 2 {
			t.Fatalf("%s: too few rows", name)
		}
		t.Logf("\n%s", r)
	}
}

func TestAblationBarrierOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runAblationBarrier(1)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: no probes, weak, strong. Weak must cost ~nothing; strong must
	// cost more than weak.
	noProbes, weak, strong := r.Rows[0], r.Rows[1], r.Rows[2]
	if weak.CyclesPerReq > noProbes.CyclesPerReq*1.01 {
		t.Errorf("weak barrier should be near-free: %.0f vs %.0f", weak.CyclesPerReq, noProbes.CyclesPerReq)
	}
	if strong.CyclesPerReq < weak.CyclesPerReq {
		t.Errorf("strong barrier should cost more than weak: %.0f vs %.0f", strong.CyclesPerReq, weak.CyclesPerReq)
	}
}
