package quality

import (
	"strings"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/profdata"
)

// coverageProfile is a CS profile whose contexts cover main's probes 1 and
// 2 and both of foo's.
func coverageProfile() *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, true)
	base := p.FuncProfile("main")
	base.AddBody(profdata.LocKey{ID: 1}, 100)
	base.AddBody(profdata.LocKey{ID: 2}, 60)

	c1 := p.ContextProfile(profdata.NewContext("main", 3, "foo"))
	c1.AddBody(profdata.LocKey{ID: 1}, 60)
	c1.AddBody(profdata.LocKey{ID: 2}, 40)

	c2 := p.ContextProfile(profdata.NewContext("main", 3, "foo", 2, "bar"))
	c2.AddBody(profdata.LocKey{ID: 1}, 40)
	return p
}

func TestCoverage(t *testing.T) {
	bin := &machine.Prog{
		Probes: []machine.ProbeRec{
			{Func: "main", ID: 1, Kind: ir.ProbeBlock},
			{Func: "main", ID: 2, Kind: ir.ProbeBlock},
			{Func: "main", ID: 4, Kind: ir.ProbeBlock},
			{Func: "main", ID: 3, Kind: ir.ProbeCall}, // call probes don't count
			{Func: "foo", ID: 1, Kind: ir.ProbeBlock},
			{Func: "foo", ID: 1, Kind: ir.ProbeBlock}, // inlined duplicate
			{Func: "foo", ID: 2, Kind: ir.ProbeBlock},
			{Func: "cold", ID: 1, Kind: ir.ProbeBlock},
		},
	}
	covs, err := Coverage(bin, coverageProfile())
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}
	want := []FuncCoverage{
		{Func: "cold", Covered: 0, Total: 1},
		{Func: "foo", Covered: 2, Total: 2},
		{Func: "main", Covered: 2, Total: 3},
	}
	if len(covs) != len(want) {
		t.Fatalf("coverage = %+v", covs)
	}
	for i := range want {
		if covs[i] != want[i] {
			t.Fatalf("coverage[%d] = %+v, want %+v", i, covs[i], want[i])
		}
	}
	table := FormatCoverage(covs)
	if !strings.Contains(table, "TOTAL") || !strings.Contains(table, "cold") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestCoverageRejectsLineBased(t *testing.T) {
	p := profdata.New(profdata.LineBased, false)
	if _, err := Coverage(&machine.Prog{}, p); err == nil {
		t.Fatal("line-based profile should be rejected")
	}
}
