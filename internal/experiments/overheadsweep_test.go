package experiments

import (
	"strings"
	"testing"
)

// The Pareto sweep's overhead column must strictly decrease as the sampling
// period grows (fewer interrupts, each at fixed cost), with the quality
// reference pinned at 1.0 for the densest period.
func TestOverheadSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := runOverheadSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), len(overheadSweepPeriods()); got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	for i, row := range res.Rows {
		if row.Samples == 0 || row.OverheadPct <= 0 {
			t.Fatalf("row %d metered nothing: %+v", i, row)
		}
		if row.ContextOverlap < 0 || row.ContextOverlap > 1 {
			t.Fatalf("row %d overlap out of range: %+v", i, row)
		}
		if i == 0 {
			if row.ContextOverlap != 1 {
				t.Fatalf("densest period overlap = %v, want 1 (it is its own reference)", row.ContextOverlap)
			}
			continue
		}
		if row.OverheadPct >= res.Rows[i-1].OverheadPct {
			t.Fatalf("overhead not strictly decreasing at period %d: %.4f then %.4f\n%s",
				row.Period, res.Rows[i-1].OverheadPct, row.OverheadPct, res)
		}
		if row.Samples >= res.Rows[i-1].Samples {
			t.Fatalf("sample count not decreasing at period %d\n%s", row.Period, res)
		}
	}
	if !strings.Contains(res.String(), "Pareto") {
		t.Fatalf("table header: %q", res.String())
	}
}
