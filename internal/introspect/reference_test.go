package introspect

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// referenceKey, referenceFolded, referenceSortEntries,
// referenceEncodeFoldedText and referenceCanonicalize are the folded
// export as it was before it rendered each key once: a map keyed by
// Entry.Key in Folded, and the same again in EncodeFoldedText, kept
// verbatim so TestFoldedMatchesReference can hold the live export to
// their entries and bytes.
func referenceKey(e Entry) string {
	var sb strings.Builder
	for i, f := range e.Frames {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(f.Func)
		if i != len(e.Frames)-1 {
			sb.WriteByte(':')
			sb.WriteString(f.Site.String())
		}
	}
	return sb.String()
}

func referenceFolded(p *profdata.Profile) []Entry {
	byKey := make(map[string]*Entry, len(p.Funcs)+len(p.Contexts))
	add := func(frames profdata.Context, w uint64) {
		if w == 0 {
			return
		}
		e := Entry{Frames: append(profdata.Context(nil), frames...), Weight: w}
		e.Frames[len(e.Frames)-1].Site = profdata.LocKey{}
		byKey[referenceKey(e)] = &e
	}
	for name, fp := range p.Funcs {
		add(profdata.Context{{Func: name}}, fp.TotalSamples)
	}
	for _, fp := range p.Contexts {
		add(fp.Context, fp.TotalSamples)
	}
	return referenceSortEntries(byKey)
}

func referenceSortEntries(byKey map[string]*Entry) []Entry {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = *byKey[k]
	}
	return out
}

func referenceEncodeFoldedText(entries []Entry) []byte {
	var sb strings.Builder
	for _, e := range referenceCanonicalize(entries) {
		sb.WriteString(referenceKey(e))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatUint(e.Weight, 10))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func referenceCanonicalize(entries []Entry) []Entry {
	byKey := map[string]*Entry{}
	for _, e := range entries {
		key := referenceKey(e)
		if cur, ok := byKey[key]; ok {
			cur.Weight += e.Weight
			continue
		}
		c := e
		c.Frames = append(profdata.Context(nil), e.Frames...)
		byKey[key] = &c
	}
	return referenceSortEntries(byKey)
}

// goldenProfiles decodes the 42 golden text profiles the profile
// generator is pinned to.
func goldenProfiles(t *testing.T) map[string]*profdata.Profile {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "pgo", "testdata", "golden", "*.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 42 {
		t.Fatalf("want 42 golden text profiles, got %d", len(paths))
	}
	out := map[string]*profdata.Profile{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := profdata.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[path] = p
	}
	return out
}

// TestFoldedMatchesReference holds Folded and EncodeFoldedText to the
// versions kept above on every golden profile: the same entries, the same
// bytes for the export the serving daemon renders, and the same bytes for
// entries out of order and repeated, which EncodeFoldedText must merge and
// sort.
func TestFoldedMatchesReference(t *testing.T) {
	for path, p := range goldenProfiles(t) {
		got, want := Folded(p), referenceFolded(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Folded differs from the reference", path)
			continue
		}
		if enc, ref := EncodeFoldedText(got), referenceEncodeFoldedText(want); !bytes.Equal(enc, ref) {
			t.Errorf("%s: EncodeFoldedText differs from the reference\n-- got:\n%.2000s\n-- want:\n%.2000s", path, enc, ref)
		}
		// Reversed, every second entry repeated with its leaf site set:
		// the repeats merge into their stack, whatever the leaf says.
		var shuffled []Entry
		for i := len(want) - 1; i >= 0; i-- {
			shuffled = append(shuffled, want[i])
			if i%2 == 0 {
				e := want[i]
				e.Frames = append(profdata.Context(nil), e.Frames...)
				e.Frames[len(e.Frames)-1].Site = profdata.LocKey{ID: int32(i)}
				shuffled = append(shuffled, e)
			}
		}
		before := append([]Entry(nil), shuffled...)
		if enc, ref := EncodeFoldedText(shuffled), referenceEncodeFoldedText(shuffled); !bytes.Equal(enc, ref) {
			t.Errorf("%s: EncodeFoldedText of shuffled entries differs from the reference\n-- got:\n%.2000s\n-- want:\n%.2000s", path, enc, ref)
		}
		if !reflect.DeepEqual(shuffled, before) {
			t.Errorf("%s: EncodeFoldedText changed its input", path)
		}
	}
}

// TestServedBytesAreTheEncodings swaps every golden profile, in path
// order, into one server, so each swap starts from the last one's room:
// the served profile is the text encoding, byte for byte, however the two
// sizes compare; /profiles/ declares its length; the served flamegraph is
// the reference export.
func TestServedBytesAreTheEncodings(t *testing.T) {
	golden := goldenProfiles(t)
	paths := make([]string, 0, len(golden))
	for path := range golden {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	s := NewServer("p", obs.NewRegistry())
	h := s.Handler()
	for _, path := range paths {
		p := golden[path]
		if err := s.SetProfile(p, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := string(s.Current().Profile), profdata.EncodeToString(p); got != want {
			t.Errorf("%s: served profile is not the text encoding", path)
		}
		if got, want := s.Current().Folded, referenceEncodeFoldedText(referenceFolded(p)); !bytes.Equal(got, want) {
			t.Errorf("%s: served flamegraph is not the reference export", path)
		}
		res, body := get(t, h, "/profiles/p")
		if cl := res.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || !bytes.Equal(body, s.Current().Profile) {
			t.Errorf("%s: /profiles/ sent %d bytes with Content-Length %q", path, len(body), cl)
		}
	}
}
