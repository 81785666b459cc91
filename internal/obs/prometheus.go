package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// renderPrometheus renders a metric snapshot in the Prometheus text
// exposition format (version 0.0.4): dotted metric names become underscore
// paths, counters and gauges map directly, and histograms export as
// summaries with p50/p95/p99 quantile samples plus _sum and _count.
// Output is sorted by metric name, so identical snapshots render
// byte-identically.
func renderPrometheus(snap Snapshot) []byte {
	var sb strings.Builder
	for _, name := range sortedKeys(snap) {
		mv := snap[name]
		pn := promName(name)
		switch mv.Kind {
		case kindCounter:
			fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", pn, pn, mv.Value)
		case kindGauge:
			fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(mv.Gauge))
		case kindHistogram:
			fmt.Fprintf(&sb, "# TYPE %s summary\n", pn)
			fmt.Fprintf(&sb, "%s{quantile=\"0.5\"} %d\n", pn, mv.P50)
			fmt.Fprintf(&sb, "%s{quantile=\"0.95\"} %d\n", pn, mv.P95)
			fmt.Fprintf(&sb, "%s{quantile=\"0.99\"} %d\n", pn, mv.P99)
			fmt.Fprintf(&sb, "%s_sum %d\n", pn, mv.Sum)
			fmt.Fprintf(&sb, "%s_count %d\n", pn, mv.Count)
		}
	}
	return []byte(sb.String())
}

// promName maps a dotted metric name onto the Prometheus name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a float like Prometheus clients do (shortest
// round-trippable form).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
