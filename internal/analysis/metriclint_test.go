package analysis

import (
	"testing"

	"csspgo/internal/obs"
)

// The shipped catalog must be duplicate-free and convention-clean.
func TestMetricCatalogClean(t *testing.T) {
	if diags := CheckMetricNames(obs.CatalogNames()); len(diags) != 0 {
		t.Fatalf("catalog lint found %d diagnostic(s): %v", len(diags), diags)
	}
}

func TestCheckMetricNames(t *testing.T) {
	diags := CheckMetricNames([]string{"a.b", "a.b", "Bad.Name", "ok.metric_name"})
	var dup, bad int
	for _, d := range diags {
		switch d.Check {
		case "metric-duplicate":
			dup++
		case "metric-name":
			bad++
		}
		if d.Sev != SevError {
			t.Errorf("diagnostic %v not an error", d)
		}
	}
	if dup != 1 || bad != 1 {
		t.Fatalf("got %d duplicate / %d name diagnostics, want 1/1: %v", dup, bad, diags)
	}
}

func TestCheckMetricRegistryFlagsKindConflict(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Gauge("a.b").Set(2) // same name, different kind
	diags := CheckMetricRegistry(reg)
	found := false
	for _, d := range diags {
		if d.Check == "metric-duplicate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("kind conflict not flagged: %v", diags)
	}

	clean := obs.NewRegistry()
	clean.Counter("a.b").Add(1)
	if diags := CheckMetricRegistry(clean); len(diags) != 0 {
		t.Fatalf("clean registry flagged: %v", diags)
	}
}
