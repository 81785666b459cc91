package analysis

import (
	"fmt"

	"csspgo/internal/obs"
)

// Event-catalog lint, mirroring the metric lint: every journaled event type
// must be declared in internal/obs's static catalog and follow the
// snake-case naming convention. Ad-hoc event types would make journals
// undecodable (obs.DecodeJournal pins the catalog), so the fleet CLI lints
// the types a run emitted before it writes its journal. The static catalog
// itself is checked by the tests.

// CheckEventNames lints an event-type list: duplicates, names violating the
// snake-case convention, and names missing from the static catalog are
// errors.
func CheckEventNames(names []string) []Diagnostic {
	known := map[string]bool{}
	for _, t := range obs.EventTypes() {
		known[string(t)] = true
	}
	var diags []Diagnostic
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "event-duplicate", Block: -1,
				Msg: fmt.Sprintf("event type %q declared more than once", name),
			})
			continue
		}
		seen[name] = true
		if !obs.ValidEventName(name) {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "event-name", Block: -1,
				Msg: fmt.Sprintf("event type %q violates the naming convention (lowercase snake case, e.g. \"breaker_open\")", name),
			})
		}
		if !known[name] {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "event-uncataloged", Block: -1,
				Msg: fmt.Sprintf("event type %q is not declared in the static event catalog", name),
			})
		}
	}
	return diags
}
