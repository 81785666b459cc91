package experiments

import (
	"testing"

	"csspgo/internal/pgo"
	"csspgo/internal/workloads"
)

func TestPGOBeatsBaselineOnServerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range workloads.ServerNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compare(w, []pgo.Variant{pgo.Baseline, pgo.FullCS})
		if err != nil {
			t.Fatal(err)
		}
		if impr := c.improvementOver(pgo.Baseline, pgo.FullCS); impr <= 0 {
			t.Errorf("%s: CSSPGO not faster than baseline (%+.2f%%)", name, impr)
		}
	}
}

func TestFullCSBeatsAutoFDO(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The paper's headline claim, on the two most context-sensitive
	// workloads (scale 2 keeps sampling noise manageable).
	for _, name := range []string{"adranker", "haas"} {
		w, err := workloads.Load(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compare(w, []pgo.Variant{pgo.AutoFDO, pgo.FullCS})
		if err != nil {
			t.Fatal(err)
		}
		if impr := c.improvementOver(pgo.AutoFDO, pgo.FullCS); impr <= 0 {
			t.Errorf("%s: CSSPGO not faster than AutoFDO (%+.2f%%)", name, impr)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.OverlapAutoFDO < r.OverlapCSSPGO && r.OverlapCSSPGO <= r.OverlapInstr) {
		t.Fatalf("overlap ordering violated: %s", r)
	}
	if r.OverlapInstr < 0.999 {
		t.Fatalf("ground truth must self-overlap fully: %f", r.OverlapInstr)
	}
	if r.OverheadCSSPGOPct > 1.0 {
		t.Fatalf("CSSPGO profiling overhead should be near zero: %f%%", r.OverheadCSSPGOPct)
	}
	if r.OverheadInstrPct < 20 {
		t.Fatalf("instrumentation overhead should be large: %f%%", r.OverheadInstrPct)
	}
}

func TestFig8ProbesNearZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runFig8(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.ProbeOverheadPct > 1.5 {
			t.Errorf("%s: probe overhead %.2f%% exceeds near-zero bound", row.Workload, row.ProbeOverheadPct)
		}
		if row.InstrOverheadPct < 20 {
			t.Errorf("%s: instrumentation overhead %.2f%% implausibly low", row.Workload, row.InstrOverheadPct)
		}
	}
}

func TestDriftShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runDrift(1)
	if err != nil {
		t.Fatal(err)
	}
	lostNoInf := r.AutoFDONoInfFreshImpr - r.AutoFDONoInfDriftedImpr
	lostCS := r.CSSPGOFreshImpr - r.CSSPGODriftedImpr
	if lostCS != 0 {
		t.Errorf("CSSPGO must be immune to comment-only drift, lost %.2fpp", lostCS)
	}
	if lostNoInf <= 0 {
		t.Errorf("AutoFDO without inference should lose performance under drift, lost %.2fpp", lostNoInf)
	}
	if r.StaleDetected != 0 {
		t.Errorf("comment drift must not trip checksums, %d stale", r.StaleDetected)
	}
}

func TestTrimShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runTrim(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.BlowupX < 3 {
		t.Errorf("dense call graph should blow up CS profile size, got %.1fx", r.BlowupX)
	}
	if r.TrimmedX >= r.BlowupX/2 {
		t.Errorf("trimming should collapse the blowup: %.1fx -> %.1fx", r.BlowupX, r.TrimmedX)
	}
}

func TestTailCallRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runTailCall(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissingFrameEvents == 0 {
		t.Fatal("TCE workload should produce missing frames")
	}
	if r.RecoveryRate < 0.67 {
		t.Errorf("recovery rate %.0f%% below the paper's two-thirds", 100*r.RecoveryRate)
	}
}

func TestClientWorkloadGapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runClient(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CSSPGOImpr <= 0 {
		t.Errorf("CSSPGO should still help the client workload: %+.2f%%", r.CSSPGOImpr)
	}
	if r.InstrImpr <= r.CSSPGOImpr {
		t.Errorf("client workloads should show a larger Instr gap: instr %+.2f%% vs cs %+.2f%%",
			r.InstrImpr, r.CSSPGOImpr)
	}
}

func TestCompareAccessors(t *testing.T) {
	c := &comparison{Results: map[pgo.Variant]*variantResult{}}
	if c.improvementOver(pgo.AutoFDO, pgo.FullCS) != 0 || c.sizeRatio(pgo.AutoFDO, pgo.FullCS) != 0 {
		t.Fatal("missing variants should yield zero, not panic")
	}
}
