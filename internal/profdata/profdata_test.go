package profdata

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestContextKeyRoundTrip(t *testing.T) {
	cases := []Context{
		NewContext("main"),
		NewContext("main", 2, "foo"),
		NewContext("main", 2, "foo", 5, "bar"),
		{{Func: "main", Site: LocKey{ID: 3, Disc: 1}}, {Func: "leaf"}},
	}
	for _, ctx := range cases {
		key := ctx.Key()
		back, err := ParseContext(key)
		if err != nil {
			t.Fatalf("ParseContext(%q): %v", key, err)
		}
		if !ctx.Equal(back) {
			t.Fatalf("round trip failed: %q -> %q", key, back.Key())
		}
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := NewContext("main", 2, "foo", 5, "bar")
	if ctx.Leaf() != "bar" || ctx.Depth() != 3 {
		t.Fatalf("leaf=%q depth=%d", ctx.Leaf(), ctx.Depth())
	}
	if got := ctx.Key(); got != "main:2 @ foo:5 @ bar" {
		t.Fatalf("key = %q", got)
	}
	parent := ctx.Parent()
	if parent.Key() != "main:2 @ foo" {
		t.Fatalf("parent = %q", parent.Key())
	}
	if ctx.callerSite() != (LocKey{ID: 5}) {
		t.Fatalf("caller site = %v", ctx.callerSite())
	}
	ext := parent.withCallee(LocKey{ID: 9}, "baz")
	if ext.Key() != "main:2 @ foo:9 @ baz" {
		t.Fatalf("extended = %q", ext.Key())
	}
	// withCallee must not mutate the receiver.
	if parent.Key() != "main:2 @ foo" {
		t.Fatalf("WithCallee mutated parent: %q", parent.Key())
	}
}

func TestParseContextErrors(t *testing.T) {
	for _, bad := range []string{"a:x @ b", "a @ ", "a: @ b"} {
		if _, err := ParseContext(bad); err == nil {
			t.Errorf("ParseContext(%q) should fail", bad)
		}
	}
}

func makeProfile() *Profile {
	p := New(ProbeBased, true)
	base := p.FuncProfile("main")
	base.HeadSamples = 10
	base.Checksum = 777
	base.AddBody(LocKey{ID: 1}, 100)
	base.AddBody(LocKey{ID: 2}, 60)
	base.AddCall(LocKey{ID: 3}, "foo", 60)

	c1 := p.ContextProfile(NewContext("main", 3, "foo"))
	c1.HeadSamples = 60
	c1.Checksum = 888
	c1.AddBody(LocKey{ID: 1}, 60)
	c1.AddBody(LocKey{ID: 2}, 40)
	c1.AddCall(LocKey{ID: 2}, "bar", 40)
	c1.ShouldInline = true

	c2 := p.ContextProfile(NewContext("main", 3, "foo", 2, "bar"))
	c2.HeadSamples = 40
	c2.AddBody(LocKey{ID: 1}, 40)

	c3 := p.ContextProfile(NewContext("other", 1, "foo"))
	c3.HeadSamples = 2
	c3.AddBody(LocKey{ID: 1}, 2)
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := makeProfile()
	text := EncodeToString(p)
	q, err := Decode([]byte(text))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if q.Kind != p.Kind || q.CS != p.CS {
		t.Fatalf("header lost: kind=%v cs=%v", q.Kind, q.CS)
	}
	if EncodeToString(q) != text {
		t.Fatalf("round trip not stable:\n--- first\n%s\n--- second\n%s", text, EncodeToString(q))
	}
	fp := q.Funcs["main"]
	if fp.BodyAt(LocKey{ID: 1}) != 100 || fp.HeadSamples != 10 || fp.Checksum != 777 {
		t.Fatalf("main profile corrupted: %+v", fp)
	}
	c1 := q.Contexts["main:3 @ foo"]
	if c1 == nil || !c1.ShouldInline || c1.Calls[LocKey{ID: 2}]["bar"] != 40 {
		t.Fatalf("context profile corrupted: %+v", c1)
	}
	if c1.TotalSamples != 100 {
		t.Fatalf("total recomputed wrong: %d", c1.TotalSamples)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"",
		"body 1 5\n",
		"# csspgo-profile kind=probe cs=1\nbody 1 5\n",
		"# csspgo-profile kind=probe cs=1\n[main]\nbody x 5\n",
		"# csspgo-profile kind=probe cs=1\n[main]\nwhat 1\n",
		"# csspgo-profile kind=probe cs=1\n[main\n",
	}
	for _, s := range bad {
		if _, err := Decode([]byte(s)); err == nil {
			t.Errorf("Decode([]byte(%q)) should fail", s)
		}
	}
}

func TestMergeContextIntoBase(t *testing.T) {
	p := makeProfile()
	before := p.Funcs["main"].TotalSamples
	foo := p.Contexts["main:3 @ foo"].TotalSamples
	p.MergeContextIntoBase("main:3 @ foo")
	if _, still := p.Contexts["main:3 @ foo"]; still {
		t.Fatal("context not removed")
	}
	base := p.Funcs["foo"]
	if base == nil || base.TotalSamples != foo {
		t.Fatalf("foo base total = %+v, want %d", base, foo)
	}
	if p.Funcs["main"].TotalSamples != before {
		t.Fatal("unrelated base profile changed")
	}
}

func TestFlatten(t *testing.T) {
	p := makeProfile()
	total := p.TotalSamples()
	p.flatten()
	if len(p.Contexts) != 0 || p.CS {
		t.Fatal("flatten left contexts behind")
	}
	if p.TotalSamples() != total {
		t.Fatalf("flatten lost samples: %d vs %d", p.TotalSamples(), total)
	}
	// foo accumulated both of its contexts: 100 + 2.
	if p.Funcs["foo"].TotalSamples != 102 {
		t.Fatalf("foo flattened total = %d", p.Funcs["foo"].TotalSamples)
	}
}

func TestTrimColdContexts(t *testing.T) {
	p := makeProfile()
	total := p.TotalSamples()
	n := p.TrimColdContexts(10)
	if n != 1 {
		t.Fatalf("trimmed %d contexts, want 1 (only other→foo is cold)", n)
	}
	if _, ok := p.Contexts["other:1 @ foo"]; ok {
		t.Fatal("cold context survived")
	}
	if _, ok := p.Contexts["main:3 @ foo"]; !ok {
		t.Fatal("hot context must survive")
	}
	if p.TotalSamples() != total {
		t.Fatal("trim must conserve samples")
	}
}

func TestTrimShrinksEncodedSize(t *testing.T) {
	p := New(ProbeBased, true)
	// Many cold contexts of the same function — the dense-call-graph blowup.
	for i := 0; i < 200; i++ {
		ctx := NewContext("caller", i+1, "util")
		fp := p.ContextProfile(ctx)
		fp.HeadSamples = 1
		fp.AddBody(LocKey{ID: 1}, 1)
	}
	hot := p.ContextProfile(NewContext("caller", 999, "util"))
	hot.HeadSamples = 10000
	hot.AddBody(LocKey{ID: 1}, 10000)
	before := p.SizeBytes()
	p.TrimColdContexts(100)
	after := p.SizeBytes()
	if after*3 > before {
		t.Fatalf("trimming should collapse size: %d -> %d", before, after)
	}
	if len(p.Contexts) != 1 {
		t.Fatalf("only the hot context should remain, got %d", len(p.Contexts))
	}
}

func TestHotThresholdForBudget(t *testing.T) {
	p := New(ProbeBased, true)
	for i := 0; i < 50; i++ {
		fp := p.ContextProfile(NewContext("f", i+1, "g"))
		fp.AddBody(LocKey{ID: 1}, uint64(i+1))
	}
	th := p.HotThresholdForBudget(10)
	n := 0
	for _, fp := range p.Contexts {
		if fp.TotalSamples >= th {
			n++
		}
	}
	if n > 10 {
		t.Fatalf("threshold %d keeps %d contexts, budget 10", th, n)
	}
	if th2 := p.HotThresholdForBudget(1000); th2 != 0 {
		t.Fatalf("budget above population must be free: %d", th2)
	}
}

func TestScale(t *testing.T) {
	fp := NewFunctionProfile("f")
	fp.AddBody(LocKey{ID: 1}, 100)
	fp.AddBody(LocKey{ID: 2}, 50)
	fp.AddCall(LocKey{ID: 2}, "g", 50)
	fp.HeadSamples = 10
	fp.Scale(1, 2)
	if fp.BodyAt(LocKey{ID: 1}) != 50 || fp.BodyAt(LocKey{ID: 2}) != 25 {
		t.Fatalf("scaled blocks: %v", fp.Blocks)
	}
	if fp.Calls[LocKey{ID: 2}]["g"] != 25 || fp.HeadSamples != 5 {
		t.Fatal("calls/head not scaled")
	}
	if fp.TotalSamples != 75 {
		t.Fatalf("total = %d", fp.TotalSamples)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := makeProfile()
	q := p.Clone()
	q.Funcs["main"].AddBody(LocKey{ID: 1}, 1)
	q.Contexts["main:3 @ foo"].ShouldInline = false
	if p.Funcs["main"].BodyAt(LocKey{ID: 1}) != 100 {
		t.Fatal("clone shares block storage")
	}
	if !p.Contexts["main:3 @ foo"].ShouldInline {
		t.Fatal("clone shares context profiles")
	}
}

func TestMergeProfiles(t *testing.T) {
	a, b := makeProfile(), makeProfile()
	total := a.TotalSamples()
	MergeProfiles(a, b)
	if a.TotalSamples() != 2*total {
		t.Fatalf("merged total = %d, want %d", a.TotalSamples(), 2*total)
	}
	if a.Funcs["main"].BodyAt(LocKey{ID: 1}) != 200 {
		t.Fatal("body counts not summed")
	}
}

// Property: Merge is count-additive for arbitrary body maps.
func TestMergeAdditiveProperty(t *testing.T) {
	f := func(ids []uint8, counts []uint16) bool {
		a := NewFunctionProfile("f")
		b := NewFunctionProfile("f")
		for i := range ids {
			c := uint64(counts[i%len(counts)])
			if i%2 == 0 {
				a.AddBody(LocKey{ID: int32(ids[i])}, c)
			} else {
				b.AddBody(LocKey{ID: int32(ids[i])}, c)
			}
		}
		sum := a.TotalSamples + b.TotalSamples
		a.Merge(b)
		return a.TotalSamples == sum
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(ids []uint8, counts []uint16) bool {
		if len(ids) == 0 || len(counts) == 0 {
			return true
		}
		return f(ids, counts)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode/Decode round-trips arbitrary profiles built from small
// generated inputs.
func TestEncodeDecodeProperty(t *testing.T) {
	err := quick.Check(func(n uint8, heads []uint16, bodies []uint16) bool {
		if len(heads) == 0 || len(bodies) == 0 {
			return true
		}
		p := New(ProbeBased, true)
		for i := 0; i < int(n%8)+1; i++ {
			fp := p.ContextProfile(NewContext("main", i+1, "f"))
			fp.HeadSamples = uint64(heads[i%len(heads)])
			for j := 0; j < 3; j++ {
				fp.AddBody(LocKey{ID: int32(j + 1)}, uint64(bodies[(i+j)%len(bodies)]))
			}
		}
		text := EncodeToString(p)
		q, err := Decode([]byte(text))
		if err != nil {
			return false
		}
		return EncodeToString(q) == text
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: trimming conserves total samples for arbitrary thresholds.
func TestTrimConservesSamplesProperty(t *testing.T) {
	err := quick.Check(func(counts []uint16, threshold uint16) bool {
		if len(counts) == 0 {
			return true
		}
		p := New(ProbeBased, true)
		for i, c := range counts {
			fp := p.ContextProfile(NewContext("m", i+1, "f"))
			fp.AddBody(LocKey{ID: 1}, uint64(c))
		}
		before := p.TotalSamples()
		p.TrimColdContexts(uint64(threshold))
		return p.TotalSamples() == before
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDeterministicOrder(t *testing.T) {
	p := makeProfile()
	a := EncodeToString(p)
	b := EncodeToString(p.Clone())
	if a != b {
		t.Fatal("encoding order not deterministic")
	}
	if !strings.Contains(a, "[main:3 @ foo]") {
		t.Fatalf("context section missing:\n%s", a)
	}
}

// withCallee extends the context by one frame: the current leaf calls
// callee at site.
func (c Context) withCallee(site LocKey, callee string) Context {
	out := make(Context, len(c), len(c)+1)
	copy(out, c)
	if len(out) > 0 {
		out[len(out)-1].Site = site
	}
	return append(out, ContextFrame{Func: callee})
}

// callerSite returns the call site in the parent frame that produced this
// context's leaf (zero LocKey for top-level contexts).
func (c Context) callerSite() LocKey {
	if len(c) < 2 {
		return LocKey{}
	}
	return c[len(c)-2].Site
}
