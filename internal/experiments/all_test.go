package experiments

import (
	"regexp"
	"testing"

	"csspgo/internal/obs"
)

// The listing is what `experiments -run` selects by and what run manifests
// key gauges by: names are unique command-line words, and every gauge a
// result publishes registers the way cmd/experiments registers it (a
// malformed or reserved name panics) — found here, not on a -report run.
func TestAllNamesAndGaugeNames(t *testing.T) {
	word := regexp.MustCompile(`^[a-z0-9-]+$`)
	seen := map[string]bool{}
	for _, e := range All() {
		if !word.MatchString(e.Name) {
			t.Errorf("experiment name %q is not a lowercase command-line word", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
	}
	if testing.Short() {
		t.Skip("short mode: gauge names need every experiment run")
	}
	reg := obs.NewRegistry()
	for _, e := range All() {
		res, err := e.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for name, v := range Gauges(e.Name, res) {
			reg.Gauge(name).Set(v)
		}
	}
}
