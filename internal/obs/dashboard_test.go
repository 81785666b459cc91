package obs

import (
	"strings"
	"testing"
)

// Satellite coverage: dashboards render attacker-influenced strings (metric
// names, event sources and details arrive from remote fleet members), so
// every interpolation must escape. A <script> payload anywhere in the input
// must never reach the output unescaped.
func TestDashboardEscapesHTML(t *testing.T) {
	const payload = `<script>alert(1)</script>`

	ts := NewTimeSeries(4)
	ts.Sample(1, Snapshot{payload + ".series": {Kind: kindGauge, Gauge: 1}})

	snap := Snapshot{
		payload + ".metric":   {Kind: kindCounter, Value: 2},
		"overhead." + payload: {Kind: kindGauge, Gauge: 3},
		"clean.metric":        {Kind: kindCounter, Value: 4},
	}

	events := []Event{{
		Type:   EventType(payload),
		Source: payload,
		Detail: payload,
		Round:  1, Seq: 1,
	}}

	out := string(renderDashboard("t "+payload, ts, snap, events))
	if strings.Contains(out, payload) {
		t.Fatalf("dashboard contains unescaped payload:\n%s", out)
	}
	if !strings.Contains(out, "&lt;script&gt;") {
		t.Fatalf("dashboard lacks the escaped payload:\n%s", out)
	}
	// The overhead.* observatory panel renders separately but must escape
	// identically.
	if !strings.Contains(out, "overhead observatory") {
		t.Fatalf("overhead panel missing:\n%s", out)
	}
	if !strings.Contains(out, "clean.metric") {
		t.Fatalf("general metrics table missing:\n%s", out)
	}
}

// The overhead panel renders only overhead.* metrics; without any, the
// section is absent entirely.
func TestDashboardOverheadPanelConditional(t *testing.T) {
	out := string(renderDashboard("t", nil, Snapshot{"serve.requests": {Kind: kindCounter, Value: 1}}, nil))
	if strings.Contains(out, "overhead observatory") {
		t.Fatalf("overhead panel rendered with no overhead.* metrics:\n%s", out)
	}
	out = string(renderDashboard("t", nil, Snapshot{MOverheadPct: {Kind: kindGauge, Gauge: 1.5}}, nil))
	if !strings.Contains(out, "overhead observatory") || !strings.Contains(out, MOverheadPct) {
		t.Fatalf("overhead panel missing:\n%s", out)
	}
}
