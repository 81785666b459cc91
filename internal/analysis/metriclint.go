package analysis

import (
	"fmt"
	"strings"

	"csspgo/internal/obs"
)

// Metric-namespace lint: the observability layer keeps one unified metric
// namespace (internal/obs's catalog plus any dynamically extended names).
// Duplicate registrations — registered at run time under conflicting kinds —
// make run-report diffs ambiguous, and an ad-hoc name in a reserved
// namespace escapes the catalog, so both daemons lint their live registry
// before they serve it. The static catalog itself is checked by the tests.

// CheckMetricNames lints a metric-name list: duplicate names and names
// violating the dotted-lowercase namespace convention are errors.
func CheckMetricNames(names []string) []Diagnostic {
	var diags []Diagnostic
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "metric-duplicate", Block: -1,
				Msg: fmt.Sprintf("metric %q registered more than once", name),
			})
			continue
		}
		seen[name] = true
		if !obs.ValidMetricName(name) {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "metric-name", Block: -1,
				Msg: fmt.Sprintf("metric %q violates the namespace convention (dotted lowercase path, e.g. \"unwind.ranges_truncated\")", name),
			})
		}
	}
	return diags
}

// CheckMetricRegistry lints a live registry: kind-conflicting duplicate
// registrations recorded by the registry plus the name conventions of
// everything registered.
func CheckMetricRegistry(reg *obs.Registry) []Diagnostic {
	var diags []Diagnostic
	for _, name := range reg.Conflicts() {
		diags = append(diags, Diagnostic{
			Sev: SevError, Check: "metric-duplicate", Block: -1,
			Msg: fmt.Sprintf("metric %q registered under conflicting kinds", name),
		})
	}
	diags = append(diags, CheckMetricNames(reg.Names())...)
	diags = append(diags, CheckMetricsCataloged(reg.Names())...)
	return diags
}

// CheckMetricsCataloged flags live metric names under a reserved prefix
// (see obs.ReservedMetricPrefixes) that are missing from the static
// catalog. Reserved namespaces feed dashboards and the run-report
// determinism tests, so ad-hoc names there are errors.
func CheckMetricsCataloged(names []string) []Diagnostic {
	catalog := map[string]bool{}
	for _, n := range obs.CatalogNames() {
		catalog[n] = true
	}
	var diags []Diagnostic
	for _, name := range names {
		for _, prefix := range obs.ReservedMetricPrefixes() {
			if strings.HasPrefix(name, prefix) && !catalog[name] {
				diags = append(diags, Diagnostic{
					Sev: SevError, Check: "metric-uncataloged", Block: -1,
					Msg: fmt.Sprintf("metric %q is in the reserved %q namespace but missing from the obs catalog", name, prefix),
				})
			}
		}
	}
	return diags
}
