package fleet

import "testing"

// The first observation seeds the EWMA and never flags; it takes two
// consecutive declines below the smoothed level to call the margin degrading.
func TestOverlapTrendSeedAndDegrade(t *testing.T) {
	tr := newOverlapTrend()
	if tr.Observe(0.15) {
		t.Fatalf("seeding observation flagged degradation")
	}
	if tr.level() != 0.15 {
		t.Fatalf("seed ewma = %v, want 0.15", tr.level())
	}
	if tr.Observe(0.10) { // first decline: not yet
		t.Fatalf("single decline flagged degradation")
	}
	if !tr.Observe(0.05) { // second consecutive decline: degrading
		t.Fatalf("two consecutive declines not flagged")
	}
	// Still degrading while the slide continues.
	if !tr.Observe(0.01) {
		t.Fatalf("continued decline not flagged")
	}
}

// A recovery (observation at or above the EWMA) resets the consecutive
// count: noise around a stable margin never alarms.
func TestOverlapTrendRecoveryResets(t *testing.T) {
	tr := newOverlapTrend()
	tr.Observe(0.20) // seed
	if tr.Observe(0.10) {
		t.Fatalf("first decline flagged")
	}
	// Recovery above the smoothed level (ewma is now 0.15).
	if tr.Observe(0.30) {
		t.Fatalf("recovery flagged degradation")
	}
	// One decline after recovery is again below threshold.
	if tr.Observe(0.10) {
		t.Fatalf("post-recovery single decline flagged")
	}
	// Flat observations (within epsilon of the EWMA) are not declines.
	tr2 := newOverlapTrend()
	tr2.Observe(0.5)
	for i := 0; i < 5; i++ {
		if tr2.Observe(0.5) {
			t.Fatalf("flat margin flagged as degrading")
		}
	}
}

// A nil detector is inert.
func TestOverlapTrendNilIsInert(t *testing.T) {
	var tr *overlapTrend
	if tr.Observe(0.1) || tr.level() != 0 {
		t.Fatalf("nil trend not inert")
	}
}
