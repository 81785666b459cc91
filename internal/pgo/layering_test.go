package pgo

import (
	"os/exec"
	"strings"
	"testing"
)

// pgo is build + collect + evaluate. What sits on top of it — the
// experiments, the daemons, the fault injectors, the workload corpus — may
// import it; its own non-test import closure reaches none of them, so a
// client of the compiler driver does not link a control plane.
func TestImportClosureStaysBelowTheHarness(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "csspgo/internal/experiments", "csspgo/internal/fleet", "csspgo/internal/introspect",
			"csspgo/internal/drift", "csspgo/internal/workloads":
			t.Errorf("internal/pgo imports %s", pkg)
		}
	}
}
