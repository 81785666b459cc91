package analysis

import (
	"testing"

	"csspgo/internal/obs"
)

// The shipped event catalog must be duplicate-free and convention-clean.
func TestEventCatalogClean(t *testing.T) {
	var names []string
	for _, et := range obs.EventTypes() {
		names = append(names, string(et))
	}
	if diags := CheckEventNames(names); len(diags) != 0 {
		t.Fatalf("event-catalog lint found %d diagnostic(s): %v", len(diags), diags)
	}
}

func TestCheckEventNames(t *testing.T) {
	diags := CheckEventNames([]string{"promotion", "promotion", "BadName", "made_up_event"})
	var dup, bad, uncat int
	for _, d := range diags {
		switch d.Check {
		case "event-duplicate":
			dup++
		case "event-name":
			bad++
		case "event-uncataloged":
			uncat++
		}
		if d.Sev != SevError {
			t.Errorf("diagnostic %v not an error", d)
		}
	}
	// "BadName" is both malformed and uncataloged; "made_up_event" is
	// well-formed but uncataloged.
	if dup != 1 || bad != 1 || uncat != 2 {
		t.Fatalf("got %d duplicate / %d name / %d uncataloged diagnostics, want 1/1/2: %v", dup, bad, uncat, diags)
	}
}

// The observatory's event names are cataloged and convention-clean; a lookalike
// stays uncataloged.
func TestCheckEventNamesKnowsOverheadEvents(t *testing.T) {
	if diags := CheckEventNames([]string{"overhead_budget_breach", "confidence_low"}); len(diags) != 0 {
		t.Fatalf("cataloged observatory events flagged: %v", diags)
	}
	diags := CheckEventNames([]string{"overhead_budget_breached"})
	if len(diags) != 1 || diags[0].Check != "event-uncataloged" {
		t.Fatalf("lookalike not flagged: %v", diags)
	}
}
