package stale

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"csspgo/internal/profdata"
)

// anchorsFromProfile as it stood before it merged the two sorted record
// lists (a map by probe ID, then a sort), kept verbatim as the test oracle.
func referenceAnchorsFromProfile(fp *profdata.FunctionProfile) []anchor {
	byID := map[int32]anchor{}
	for _, b := range fp.Blocks {
		if b.Loc.Disc != 0 {
			continue // not a probe key
		}
		byID[b.Loc.ID] = anchor{Kind: block, ID: b.Loc.ID}
	}
	for i := 0; i < len(fp.Calls); {
		targets := fp.CallsAt(fp.Calls[i].Loc)
		i += len(targets)
		if loc := targets[0].Loc; loc.Disc == 0 {
			byID[loc.ID] = anchor{Kind: call, ID: loc.ID, Callee: dominantCallee(targets)}
		}
	}
	out := make([]anchor, 0, len(byID))
	for _, a := range byID {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestAnchorsFromProfileMatchesReference holds anchorsFromProfile to the
// reference on 500 random profiles: body and call records at shared and
// separate probe IDs, with and without discriminators, several callees at a
// site, built in one reused slice as a Matcher does.
func TestAnchorsFromProfileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var out []anchor
	for trial := range 500 {
		fp := profdata.NewFunctionProfile("f")
		for range rng.Intn(40) {
			loc := profdata.LocKey{ID: int32(1 + rng.Intn(30))}
			if rng.Intn(4) == 0 {
				loc.Disc = int32(1 + rng.Intn(3))
			}
			if rng.Intn(2) == 0 {
				fp.AddBody(loc, uint64(rng.Intn(5)))
			} else {
				fp.AddCall(loc, fmt.Sprintf("g%d", rng.Intn(4)), uint64(1+rng.Intn(9)))
			}
		}
		want := referenceAnchorsFromProfile(fp)
		out = anchorsFromProfile(out, fp)
		if !slices.Equal(out, want) {
			t.Fatalf("trial %d: anchors %v, reference says %v", trial, out, want)
		}
	}
}
