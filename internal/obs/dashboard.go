package obs

import (
	"fmt"
	"html"
	"sort"
	"strings"
)

// renderDashboard renders a self-contained HTML dashboard — inline CSS and
// SVG sparklines, no external assets, so it loads from an air-gapped fleet
// box — showing every tracked time series, the current metric snapshot, and
// the tail of the event journal. Output is deterministic for a given
// (store, snapshot, events) triple: series and metrics sort by name.
func renderDashboard(title string, ts *TimeSeries, snap Snapshot, events []Event) []byte {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", html.EscapeString(title))
	sb.WriteString(`<style>
body{font-family:monospace;background:#111;color:#ddd;margin:1.5em}
h1{font-size:1.2em}h2{font-size:1em;border-bottom:1px solid #333;padding-bottom:.2em}
table{border-collapse:collapse}td,th{padding:.15em .8em;text-align:left}
th{color:#8ab}tr:nth-child(even){background:#181818}
.spark{vertical-align:middle}.num{text-align:right}
.ev-promotion{color:#7c7}.ev-rollback,.ev-breaker_open{color:#c77}
.ev-overlap_degrading,.ev-overhead_budget_breach,.ev-confidence_low{color:#cc7}
</style></head><body>
`)
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", html.EscapeString(title))

	if ts != nil {
		sb.WriteString("<h2>time series</h2>\n<table><tr><th>metric</th><th>trend</th><th class=num>last</th><th class=num>points</th></tr>\n")
		for _, name := range ts.seriesNames() {
			pts := ts.points(name)
			last := 0.0
			if len(pts) > 0 {
				last = pts[len(pts)-1].Value
			}
			fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td class=num>%.6g</td><td class=num>%d</td></tr>\n",
				html.EscapeString(name), sparkline(pts), last, len(pts))
		}
		sb.WriteString("</table>\n")
	}

	// The overhead observatory gets its own panel: the cost ledger and
	// confidence classes are the dashboard's "what does profiling cost us
	// right now" view, separated from the general metric dump.
	var ohNames, names []string
	for n := range snap {
		if strings.HasPrefix(n, "overhead.") {
			ohNames = append(ohNames, n)
		} else {
			names = append(names, n)
		}
	}
	sort.Strings(ohNames)
	sort.Strings(names)
	if len(ohNames) > 0 {
		sb.WriteString("<h2>overhead observatory</h2>\n<table><tr><th>metric</th><th>kind</th><th class=num>value</th></tr>\n")
		for _, n := range ohNames {
			mv := snap[n]
			fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td class=num>%s</td></tr>\n",
				html.EscapeString(n), mv.Kind, html.EscapeString(formatMetric(mv)))
		}
		sb.WriteString("</table>\n")
	}

	if len(names) > 0 {
		sb.WriteString("<h2>metrics</h2>\n<table><tr><th>metric</th><th>kind</th><th class=num>value</th></tr>\n")
		for _, n := range names {
			mv := snap[n]
			fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td class=num>%s</td></tr>\n",
				html.EscapeString(n), mv.Kind, html.EscapeString(formatMetric(mv)))
		}
		sb.WriteString("</table>\n")
	}

	if len(events) > 0 {
		sb.WriteString("<h2>events</h2>\n<table><tr><th class=num>round</th><th class=num>seq</th><th>type</th><th>source</th><th>detail</th></tr>\n")
		const tail = 50
		start := 0
		if len(events) > tail {
			start = len(events) - tail
		}
		for _, e := range events[start:] {
			fmt.Fprintf(&sb, "<tr><td class=num>%d</td><td class=num>%d</td><td class=\"ev-%s\">%s</td><td>%s</td><td>%s</td></tr>\n",
				e.Round, e.Seq, html.EscapeString(string(e.Type)), html.EscapeString(string(e.Type)),
				html.EscapeString(e.Source), html.EscapeString(e.Detail))
		}
		sb.WriteString("</table>\n")
	}

	sb.WriteString("</body></html>\n")
	return []byte(sb.String())
}

// sparkline renders a series as a tiny inline SVG polyline scaled to its own
// [min, max]. Flat or single-point series draw a midline.
func sparkline(pts []point) string {
	const w, h = 120, 16
	if len(pts) == 0 {
		return ""
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
	}
	var coords []string
	for i, p := range pts {
		x := float64(w)
		if len(pts) > 1 {
			x = float64(i) / float64(len(pts)-1) * w
		}
		y := float64(h) / 2
		if hi > lo {
			y = h - (p.Value-lo)/(hi-lo)*(h-2) - 1
		}
		coords = append(coords, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	return fmt.Sprintf(`<svg class=spark width="%d" height="%d"><polyline fill="none" stroke="#6ac" stroke-width="1" points="%s"/></svg>`,
		w, h, strings.Join(coords, " "))
}
