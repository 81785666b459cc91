package quality

import (
	"math"
	"strings"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

func diffProfile(fooWeight, barWeight uint64) *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, true)
	p.FuncProfile("main").AddBody(profdata.LocKey{ID: 1}, 100)
	if fooWeight > 0 {
		c := p.ContextProfile(profdata.NewContext("main", 3, "foo"))
		c.AddBody(profdata.LocKey{ID: 1}, fooWeight)
	}
	if barWeight > 0 {
		c := p.ContextProfile(profdata.NewContext("main", 3, "foo", 2, "bar"))
		c.AddBody(profdata.LocKey{ID: 1}, barWeight)
	}
	return p
}

func TestDiffProfilesIdentical(t *testing.T) {
	a, b := diffProfile(60, 40), diffProfile(60, 40)
	d := DiffProfiles(a, b)
	if d.ContextOverlap < 0.999 {
		t.Fatalf("identical profiles overlap = %v, want ~1", d.ContextOverlap)
	}
	if len(d.Gained) != 0 || len(d.Lost) != 0 {
		t.Fatalf("gained/lost on identical profiles: %+v", d)
	}
	if d.MeanFuncDivergence != 0 {
		t.Fatalf("divergence on identical profiles: %v", d.MeanFuncDivergence)
	}
}

func TestDiffProfilesGainedLost(t *testing.T) {
	old, new := diffProfile(60, 40), diffProfile(60, 0)
	d := DiffProfiles(old, new)
	if len(d.Lost) != 1 || d.Lost[0] != "main:3 @ foo:2 @ bar" {
		t.Fatalf("lost = %v", d.Lost)
	}
	if len(d.Gained) != 0 {
		t.Fatalf("gained = %v", d.Gained)
	}
	if d.ContextOverlap >= 0.999 {
		t.Fatalf("overlap should drop when a context vanishes: %v", d.ContextOverlap)
	}
	back := DiffProfiles(new, old)
	if len(back.Gained) != 1 || back.Gained[0] != "main:3 @ foo:2 @ bar" {
		t.Fatalf("reverse gained = %v", back.Gained)
	}
}

func TestDiffProfilesFuncDivergence(t *testing.T) {
	old := profdata.New(profdata.ProbeBased, false)
	old.FuncProfile("stable").AddBody(profdata.LocKey{ID: 1}, 100)
	old.FuncProfile("shrinks").AddBody(profdata.LocKey{ID: 1}, 100)
	old.FuncProfile("vanishes").AddBody(profdata.LocKey{ID: 1}, 10)
	new := profdata.New(profdata.ProbeBased, false)
	new.FuncProfile("stable").AddBody(profdata.LocKey{ID: 1}, 100)
	new.FuncProfile("shrinks").AddBody(profdata.LocKey{ID: 1}, 50)
	new.FuncProfile("appears").AddBody(profdata.LocKey{ID: 1}, 10)

	d := DiffProfiles(old, new)
	want := map[string]float64{"stable": 0, "shrinks": 0.5, "vanishes": 1, "appears": 1}
	for name, w := range want {
		if got, ok := d.FuncDivergence[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("divergence[%s] = %v, want %v", name, got, w)
		}
	}
	if math.Abs(d.MeanFuncDivergence-2.5/4) > 1e-9 {
		t.Fatalf("mean divergence = %v", d.MeanFuncDivergence)
	}
}

func TestDiffProfilesObservedPublishes(t *testing.T) {
	reg := obs.NewRegistry()
	DiffProfiles(diffProfile(60, 40), diffProfile(60, 0)).Publish(reg)
	snap := reg.Snapshot()
	if snap[obs.MQualityContextOverlap].Gauge >= 0.999 {
		t.Fatalf("overlap gauge = %+v", snap[obs.MQualityContextOverlap])
	}
	if snap[obs.MQualityContextsLost].Value != 1 {
		t.Fatalf("lost counter = %+v", snap[obs.MQualityContextsLost])
	}
	if snap[obs.MQualityContextsGained].Value != 0 {
		t.Fatalf("gained counter = %+v", snap[obs.MQualityContextsGained])
	}
	if snap[obs.MQualityFuncDivergence].Gauge <= 0 {
		t.Fatalf("divergence gauge = %+v", snap[obs.MQualityFuncDivergence])
	}
}

func TestDiffFormat(t *testing.T) {
	out := DiffProfiles(diffProfile(60, 40), diffProfile(60, 0)).Format()
	for _, want := range []string{"context overlap:", "contexts lost:        1", "- main:3 @ foo:2 @ bar", "per-function divergence:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestDiffFlatProfilesUseFuncWeights(t *testing.T) {
	a := profdata.New(profdata.LineBased, false)
	a.FuncProfile("x").AddBody(profdata.LocKey{ID: 1}, 50)
	a.FuncProfile("y").AddBody(profdata.LocKey{ID: 1}, 50)
	b := profdata.New(profdata.LineBased, false)
	b.FuncProfile("x").AddBody(profdata.LocKey{ID: 1}, 100)
	d := DiffProfiles(a, b)
	if math.Abs(d.ContextOverlap-0.5) > 1e-9 {
		t.Fatalf("flat overlap = %v, want 0.5", d.ContextOverlap)
	}
	if len(d.Lost) != 1 || d.Lost[0] != "flat:y" {
		t.Fatalf("lost = %v", d.Lost)
	}
}
