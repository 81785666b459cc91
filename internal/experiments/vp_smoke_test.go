package experiments

import (
	"testing"

	"csspgo/internal/pgo"
)

func TestValueProfileExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := runValueProfile(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r)
	// Instr PGO's exact value profiles should promote at least as many
	// sites as any sampling variant.
	var instrProm, bestSampled int
	for _, row := range r.Rows {
		if row.Variant == pgo.InstrPGO {
			instrProm = row.Promotions
		} else if row.Promotions > bestSampled {
			bestSampled = row.Promotions
		}
	}
	if instrProm < bestSampled {
		t.Errorf("instr promotions (%d) below sampled best (%d)", instrProm, bestSampled)
	}
}
