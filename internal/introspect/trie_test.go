package introspect

import (
	"strings"
	"testing"

	"csspgo/internal/profdata"
)

func TestBuildTrieWeights(t *testing.T) {
	root := BuildTrie(testProfile())
	if root.Inclusive != 300 {
		t.Fatalf("root inclusive = %d, want 300", root.Inclusive)
	}
	if len(root.Children) != 1 || root.Children[0].Func != "main" {
		t.Fatalf("root children = %+v", root.Children)
	}
	main := root.Children[0]
	if main.Exclusive != 160 || main.Inclusive != 300 {
		t.Fatalf("main incl/excl = %d/%d", main.Inclusive, main.Exclusive)
	}
	if len(main.Children) != 1 {
		t.Fatalf("main children = %+v", main.Children)
	}
	foo := main.Children[0]
	if foo.Func != "foo" || foo.Site != (profdata.LocKey{ID: 3}) {
		t.Fatalf("foo node = %+v", foo)
	}
	if foo.Exclusive != 100 || foo.Inclusive != 140 {
		t.Fatalf("foo incl/excl = %d/%d", foo.Inclusive, foo.Exclusive)
	}
	bar := foo.Children[0]
	if bar.Func != "bar" || bar.Site != (profdata.LocKey{ID: 2}) ||
		bar.Exclusive != 40 || bar.Inclusive != 40 {
		t.Fatalf("bar node = %+v", bar)
	}
}

func TestTrieWalkOrderAndDepth(t *testing.T) {
	root := BuildTrie(testProfile())
	var got []string
	root.walk(func(n *TrieNode, depth int) {
		got = append(got, strings.Repeat(">", depth)+n.Func)
	})
	want := []string{">main", ">>foo", ">>>bar"}
	if len(got) != len(want) {
		t.Fatalf("walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk = %v, want %v", got, want)
		}
	}
}

func TestTrieFormat(t *testing.T) {
	out := BuildTrie(testProfile()).Format()
	for _, want := range []string{"300 total samples", "main", "foo (from site 3)", "bar (from site 2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}
