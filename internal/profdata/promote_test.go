package profdata

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The two promotion loops the profile had before one operation served
// both, kept verbatim (package prefixes dropped) as references: the
// pre-inliner's promote with the rootedContexts query it ran over, and the
// profile half of the compile-time sample inliner's promoteContextsRootedAt
// (the function re-annotation it drove is returned as the set of leaves to
// re-annotate).

// referenceRootedContexts returns, in key order, the keys of the contexts
// (depth 2 or more) whose outermost frame is fn.
func referenceRootedContexts(prof *Profile, fn string) []string {
	var out []string
	for key, cp := range prof.Contexts {
		if len(cp.Context) >= 2 && cp.Context[0].Func == fn {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// referencePreinlinePromote merges a context one frame down: "A:1 @ B:2 @ C"
// folds into "B:2 @ C" (or into C's base profile at depth 2). If the
// shallower context exists its ShouldInline decision is preserved.
func referencePreinlinePromote(prof *Profile, key string) {
	cp := prof.Contexts[key]
	if cp == nil {
		return
	}
	delete(prof.Contexts, key)
	if cp.Context.Depth() <= 2 {
		base := prof.FuncProfile(cp.Name)
		if base.Checksum == 0 {
			base.Checksum = cp.Checksum
		}
		base.Merge(cp)
		return
	}
	newCtx := append(Context(nil), cp.Context[1:]...)
	dst := prof.ContextProfile(newCtx)
	if dst.Checksum == 0 {
		dst.Checksum = cp.Checksum
	}
	wasMarked := dst.ShouldInline
	dst.Merge(cp)
	dst.ShouldInline = wasMarked
}

// referencePromoteRootedAt drops the leading frame from every remaining
// context rooted at fname: the call was not inlined, so the callee runs
// standalone and its context counts belong one level down. Depth-1 results
// merge into base profiles, whose functions are returned for re-annotation.
func referencePromoteRootedAt(prof *Profile, fname string) map[string]bool {
	reannotate := map[string]bool{}
	for _, key := range prof.SortedContextKeys() {
		cp, ok := prof.Contexts[key]
		if !ok || len(cp.Context) < 2 || cp.Context[0].Func != fname {
			continue
		}
		newCtx := append(Context(nil), cp.Context[1:]...)
		delete(prof.Contexts, key)
		if newCtx.Depth() == 1 {
			base := prof.FuncProfile(cp.Name)
			if base.Checksum == 0 {
				base.Checksum = cp.Checksum
			}
			base.Merge(cp)
			reannotate[cp.Name] = true
			continue
		}
		dst := prof.ContextProfile(newCtx)
		dst.ShouldInline = dst.ShouldInline || cp.ShouldInline
		dst.Merge(cp)
	}
	return reannotate
}

// goldenCSProfiles decodes every committed golden CS profile: the raw
// profiles under internal/pgo/testdata/golden and the trimmed, pre-inlined
// ones (ShouldInline marks included) under internal/preinline/testdata.
func goldenCSProfiles(t *testing.T) map[string]*Profile {
	t.Helper()
	raw, err := filepath.Glob(filepath.Join("..", "pgo", "testdata", "golden", "*.cs.prof"))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := filepath.Glob(filepath.Join("..", "preinline", "testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 14 || len(pre) != 14 {
		t.Fatalf("want 14 + 14 golden CS profiles, got %d + %d", len(raw), len(pre))
	}
	out := map[string]*Profile{}
	for _, path := range append(raw, pre...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if strings.HasPrefix(text, "# trimmed=") {
			// The pre-inliner goldens lead with the Result line.
			text = text[strings.Index(text, "\n")+1:]
		}
		p, err := Decode([]byte(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !p.CS {
			t.Fatalf("%s: not a CS profile", path)
		}
		out[path] = p
	}
	return out
}

// contextRoots returns every function some context of depth 2 or more is
// rooted at, sorted.
func contextRoots(p *Profile) []string {
	roots := map[string]bool{}
	for _, cp := range p.Contexts {
		if len(cp.Context) >= 2 {
			roots[cp.Context[0].Func] = true
		}
	}
	return sortedKeys(roots)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestPromoteMatchesReferences holds RootedAt and Promote to the
// references on every golden CS profile: Promote of every context the
// pre-inliner may promote (it promotes unmarked ones only) equals its
// promote, and promoting every context rooted at F equals the sample
// inliner's loop for F, the same leaves to re-annotate included. Every
// promotion conserves sample mass.
func TestPromoteMatchesReferences(t *testing.T) {
	keys, roots := 0, 0
	for path, p := range goldenCSProfiles(t) {
		for _, key := range p.SortedContextKeys() {
			if p.Contexts[key].ShouldInline {
				continue
			}
			want, got := p.Clone(), p.Clone()
			referencePreinlinePromote(want, key)
			got.Promote(key)
			assertSameProfile(t, path+" promoting "+key, want, got)
			assertConserved(t, path+" promoting "+key, p, got)
			keys++
		}
		for _, fn := range contextRoots(p) {
			want, got := p.Clone(), p.Clone()
			if w, g := referenceRootedContexts(want, fn), got.RootedAt(fn); !slices.Equal(w, g) {
				t.Errorf("%s: RootedAt(%s) = %q, want %q", path, fn, g, w)
			}
			wantRe := referencePromoteRootedAt(want, fn)
			gotRe := map[string]bool{}
			for _, key := range got.RootedAt(fn) {
				if base := got.Promote(key); base != "" {
					gotRe[base] = true
				}
			}
			assertSameProfile(t, path+" rooted at "+fn, want, got)
			assertConserved(t, path+" rooted at "+fn, p, got)
			if !maps.Equal(wantRe, gotRe) {
				t.Errorf("%s rooted at %s: base profiles to re-annotate %v, want %v", path, fn, sortedKeys(gotRe), sortedKeys(wantRe))
			}
			roots++
		}
	}
	if keys == 0 || roots == 0 {
		t.Fatalf("checked %d keys and %d roots", keys, roots)
	}
	t.Logf("%d promotions and %d roots checked", keys, roots)

	// Hand-built profiles cover what no decoded golden can hold: a source
	// with a zero-count body entry and zero-count call targets (what
	// FunctionProfile.Scale leaves; both readers drop zero counts), a
	// Checksum and Approx, promoted to a destination that exists and to one
	// that does not, at depth 3 and at depth 2.
	for _, c := range handBuiltPromotions() {
		if !c.p.Contexts[c.key].ShouldInline {
			want, got := c.p.Clone(), c.p.Clone()
			referencePreinlinePromote(want, c.key)
			got.Promote(c.key)
			assertSameProfile(t, c.name, want, got)
			assertSameBinary(t, c.name, want, got)
			assertConserved(t, c.name, c.p, got)
		}
		fn := c.p.Contexts[c.key].Context[0].Func
		want, got := c.p.Clone(), c.p.Clone()
		wantRe := referencePromoteRootedAt(want, fn)
		gotRe := map[string]bool{}
		for _, key := range got.RootedAt(fn) {
			if base := got.Promote(key); base != "" {
				gotRe[base] = true
			}
		}
		assertSameProfile(t, c.name+" rooted at "+fn, want, got)
		assertSameBinary(t, c.name+" rooted at "+fn, want, got)
		assertConserved(t, c.name+" rooted at "+fn, c.p, got)
		if !maps.Equal(wantRe, gotRe) {
			t.Errorf("%s rooted at %s: base profiles to re-annotate %v, want %v", c.name, fn, sortedKeys(gotRe), sortedKeys(wantRe))
		}
	}
}

type handBuiltPromotion struct {
	name string
	p    *Profile
	key  string // the context promoted
}

// handBuiltPromotions returns one profile per case, each with the source
// context under key: "A:1 @ B:2 @ C" (depth 3) or "B:2 @ C" (depth 2),
// unmarked or marked, with or without a destination already present.
func handBuiltPromotions() []handBuiltPromotion {
	source := func(p *Profile, ctx Context, marked bool) string {
		fp := p.ContextProfile(ctx)
		// Zero-valued records, as Scale leaves them, at body 2 and calls
		// 3 -> E and 4 -> F.
		fp.Blocks = []BodyCount{{LocKey{ID: 1}, 7}, {LocKey{ID: 2}, 0}, {LocKey{ID: 3, Disc: 1}, 5}}
		fp.TotalSamples = 12
		fp.HeadSamples = 4
		fp.Calls = []CallCount{{LocKey{ID: 3}, "D", 6}, {LocKey{ID: 3}, "E", 0}, {LocKey{ID: 4}, "F", 0}}
		fp.Checksum = 0xc0ffee
		fp.Approx = true
		fp.ShouldInline = marked
		return ctx.Key()
	}
	dest := func(fp *FunctionProfile, marked bool) {
		fp.AddBody(LocKey{ID: 1}, 3)
		fp.AddBody(LocKey{ID: 5}, 2)
		fp.HeadSamples = 1
		fp.AddCall(LocKey{ID: 3}, "D", 1)
		fp.ShouldInline = marked
	}
	var out []handBuiltPromotion
	for _, depth := range []int{3, 2} {
		ctx := NewContext("A", 1, "B", 2, "C")
		if depth == 2 {
			ctx = ctx[1:]
		}
		for _, marked := range []bool{false, true} {
			for _, present := range []string{"none", "unmarked", "marked"} {
				if depth == 2 && present == "marked" {
					continue // a base profile carries no decision
				}
				p := New(ProbeBased, true)
				key := source(p, ctx, marked)
				// An unrelated context rooted elsewhere stays put.
				p.ContextProfile(NewContext("Z", 9, "C")).AddBody(LocKey{ID: 1}, 1)
				if present != "none" {
					if depth == 2 {
						dest(p.FuncProfile("C"), false)
					} else {
						dest(p.ContextProfile(ctx[1:]), present == "marked")
					}
				}
				out = append(out, handBuiltPromotion{
					name: fmt.Sprintf("hand-built depth %d marked=%v destination %s: promoting %s", depth, marked, present, key),
					p:    p, key: key,
				})
			}
		}
	}
	return out
}

// assertConserved fails unless promotion kept the profile's sample mass.
func assertConserved(t *testing.T, what string, before, after *Profile) {
	t.Helper()
	if b, a := before.TotalSamples(), after.TotalSamples(); a != b {
		t.Errorf("%s: %d samples became %d", what, b, a)
	}
}

func assertSameBinary(t *testing.T, what string, want, got *Profile) {
	t.Helper()
	if w, g := EncodeBinary(want), EncodeBinary(got); !bytes.Equal(w, g) {
		t.Errorf("%s: binary encodings differ", what)
	}
}

func assertSameProfile(t *testing.T, what string, want, got *Profile) {
	t.Helper()
	if w, g := EncodeToString(want), EncodeToString(got); w != g {
		t.Errorf("%s: profiles differ\nwant:\n%s\ngot:\n%s", what, w, g)
	}
	if !maps.EqualFunc(want.Contexts, got.Contexts, func(a, b *FunctionProfile) bool { return a.Context.Key() == b.Context.Key() }) {
		t.Errorf("%s: context tables differ", what)
	}
}
