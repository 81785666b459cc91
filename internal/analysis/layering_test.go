package analysis

import (
	"os/exec"
	"strings"
	"testing"
)

// analysis lints programs and profiles. The daemons' metric, event and
// HTTP surfaces are checked where they are made (obs.Registry, obs.Journal)
// and by their own tests, so the linter's non-test import closure reaches
// neither the observability layer nor an HTTP stack.
func TestImportClosureExcludesObsAndHTTP(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "csspgo/internal/obs", "net/http":
			t.Errorf("internal/analysis imports %s", pkg)
		}
	}
}
