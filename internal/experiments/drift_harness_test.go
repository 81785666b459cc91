package experiments

import (
	"testing"

	"csspgo/internal/drift"
)

// TestDriftMatrixMatchingRecoversMore is the headline acceptance test for
// the degradation ladder: under CFG-changing source edits, anchor-based
// matching must recover strictly more of the fresh-profile speedup than
// dropping the stale profile does.
func TestDriftMatrixMatchingRecoversMore(t *testing.T) {
	muts := []drift.Mutation{drift.InsertStmts, drift.AddBranches, drift.RemoveBranches}
	res, err := runDriftMatrix([]string{"adranker"}, muts, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Rows) != len(muts) {
		t.Fatalf("expected %d cells, got %d", len(muts), len(res.Rows))
	}
	var dropSum, matchSum float64
	for _, c := range res.Rows {
		dropSum += c.DropImpr
		matchSum += c.MatchImpr
		if c.FreshImpr <= 0 {
			t.Errorf("%s/%s: fresh profile gave no speedup (%.2f%%); harness premise broken",
				c.Workload, c.Mutation, c.FreshImpr)
		}
		if c.MatchedFuncs == 0 {
			t.Errorf("%s/%s: matcher recovered no functions", c.Workload, c.Mutation)
		}
		if c.MatchQuality <= 0 || c.MatchQuality > 1 {
			t.Errorf("%s/%s: match quality %.2f out of range", c.Workload, c.Mutation, c.MatchQuality)
		}
	}
	if matchSum <= dropSum {
		t.Errorf("matching recovered %.2f%% total vs drop-stale %.2f%% — must be strictly higher",
			matchSum, dropSum)
	}
}

// TestDriftMatrixLayoutOnly checks the exact-match path: a layout-only edit
// leaves every checksum intact, so the stale profile applies as-is and
// nothing should land on the matcher's rungs.
func TestDriftMatrixLayoutOnly(t *testing.T) {
	res, err := runDriftMatrix([]string{"adranker"}, []drift.Mutation{drift.ReorderFuncs}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Rows[0]
	t.Logf("\n%s", res)
	if c.MatchedFuncs != 0 || c.FlatFallbackFuncs != 0 {
		t.Errorf("layout-only edit used the matcher: matched=%d flat=%d",
			c.MatchedFuncs, c.FlatFallbackFuncs)
	}
	if c.DropImpr <= 0 || c.MatchImpr <= 0 {
		t.Errorf("exact checksum match should keep the profile useful: drop=%.2f match=%.2f",
			c.DropImpr, c.MatchImpr)
	}
}

// TestCorruptionMatrixNeverFails: every corruption × format must produce a
// build (profiled or, at worst, unprofiled) — never an error, never a panic.
func TestCorruptionMatrixNeverFails(t *testing.T) {
	res, err := runCorruptionMatrix([]string{"adranker"}, drift.AllCorruptions(), 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	want := 2 * len(drift.AllCorruptions())
	if len(res.Rows) != want {
		t.Fatalf("expected %d cells, got %d", want, len(res.Rows))
	}
	decoded := 0
	for _, c := range res.Rows {
		if c.DecodeOK {
			decoded++
		}
	}
	if decoded == 0 {
		t.Error("lenient decode salvaged nothing from any corruption; stats suspicious")
	}
}
