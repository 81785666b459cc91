package experiments

import (
	"strings"
	"testing"

	"csspgo/internal/fleet"
)

// The scaled-down matrix: every fault kind at 1-of-4 incidence must stay
// within the pinned overlap bound, promote exactly the in-bound merges, and
// catch the poisoned candidate with a byte-identical rollback.
func TestFleetFaultMatrixSmall(t *testing.T) {
	res, err := runFleetFaults("adranker", 4, 1, 1, 23)
	if err != nil {
		t.Fatalf("runFleetFaults: %v", err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("contract: %v\n%s", err, res)
	}
	if len(res.Cells) != len(fleet.AllFaults()) {
		t.Fatalf("cells = %d, want one per fault kind", len(res.Cells))
	}

	byFault := map[string]fleetFaultCell{}
	for _, c := range res.Cells {
		byFault[c.Fault.String()] = c
	}
	// Hard faults exclude exactly the broken instance.
	for _, f := range []string{"outage", "hang", "slow-drip"} {
		c := byFault[f]
		if c.Healthy != 3 || c.Excluded["fetch-failed"] != 1 {
			t.Fatalf("%s: healthy=%d excluded=%v", f, c.Healthy, c.Excluded)
		}
	}
	// A stale-epoch replica is rejected by generation monotonicity.
	if c := byFault["stale-epoch"]; c.Replays != 1 || c.Healthy != 3 {
		t.Fatalf("stale-epoch: replays=%d healthy=%d", c.Replays, c.Healthy)
	}
	// A flapping source is absorbed by the retry budget — nothing excluded.
	if c := byFault["flap"]; c.Healthy != 4 {
		t.Fatalf("flap: healthy=%d excluded=%v", c.Healthy, c.Excluded)
	}
	// A truncated payload still contributes its decodable prefix.
	if c := byFault["truncate"]; c.Skipped == 0 {
		t.Fatalf("truncate: no skipped records surfaced")
	}

	if !strings.Contains(res.String(), "poisoned candidate") {
		t.Fatalf("summary missing poison line:\n%s", res)
	}
}
