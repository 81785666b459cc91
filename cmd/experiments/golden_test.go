package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"csspgo/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/all-scale1.golden from this run")

// The experiments' contract: what `experiments -run all -scale 1` prints —
// every experiment's rendered table, in order — plus every experiment.*
// gauge its -report manifest carries, as sorted "name value" lines. No
// timings are in it, so two runs are byte-identical. The command is built
// and run as a user would run it; whatever is behind it must reproduce
// testdata/all-scale1.golden. -update rewrites the file, only for a change
// that means to move a number.
func TestAllScale1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	report := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, "-run", "all", "-scale", "1", "-report", report)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments: %v\n%s", err, stderr.String())
	}
	tables, ok := strings.CutSuffix(stdout.String(), "wrote report "+report+"\n")
	if !ok {
		t.Fatalf("stdout does not end with the report line:\n%s", stdout.String())
	}
	rep, err := obs.ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	var gauges []string
	for name, mv := range rep.Metrics {
		if strings.HasPrefix(name, "experiment.") && mv.Kind == "gauge" {
			gauges = append(gauges, name+" "+strconv.FormatFloat(mv.Gauge, 'g', -1, 64))
		}
	}
	if len(gauges) != len(rep.Metrics) {
		t.Errorf("manifest carries %d metrics, %d of them experiment.* gauges", len(rep.Metrics), len(gauges))
	}
	sort.Strings(gauges)
	got := fmt.Sprintf("%s== experiment.* gauges (%d)\n%s\n", tables, len(gauges), strings.Join(gauges, "\n"))

	golden := filepath.Join("testdata", "all-scale1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("experiments -run all -scale 1 moved; first difference:\n%s", firstDiff(string(want), got))
	}
}

// firstDiff renders the first line where want and got part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(none)"
}
