// Package introspect makes profiles inspectable: folded-stack (flamegraph-
// collapsed) export in a deterministic text encoding, a context-trie walker
// with inclusive/exclusive weights, per-function probe coverage, and the
// HTTP serving daemon behind `csspgo serve`.
package introspect

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"csspgo/internal/profdata"
)

// Entry is one folded stack: the calling-context frames (outermost first,
// leaf last) and the total sample weight attributed to exactly that stack.
type Entry struct {
	Frames profdata.Context
	Weight uint64
}

// Key renders the folded-stack key: frames joined with ';', every frame
// except the leaf carrying its call site ("main:2;foo:5;bar"). Unlike
// flamegraph convention, call sites are kept so distinct calling contexts
// through the same functions stay distinct and the encoding round-trips
// losslessly.
func (e Entry) Key() string {
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

// Folded flattens a profile into folded-stack entries: one entry per
// calling context (weight = the context's body samples) plus one
// single-frame entry per base function profile (flat residue). A context
// has at least two frames, so no two entries share a stack; the result is
// sorted by stack key, so the export is deterministic for any map
// iteration order.
func Folded(p *profdata.Profile) []Entry {
	byKey := make(map[string]*Entry, len(p.Funcs)+len(p.Contexts))
	add := func(frames profdata.Context, w uint64) {
		if w == 0 {
			return
		}
		e := Entry{Frames: append(profdata.Context(nil), frames...), Weight: w}
		// The leaf frame's site is meaningless; clear it so re-parsed
		// entries compare equal.
		e.Frames[len(e.Frames)-1].Site = profdata.LocKey{}
		byKey[e.Key()] = &e
	}
	for name, fp := range p.Funcs {
		add(profdata.Context{{Func: name}}, fp.TotalSamples)
	}
	for _, fp := range p.Contexts {
		add(fp.Context, fp.TotalSamples)
	}
	return sortEntries(byKey)
}

func sortEntries(byKey map[string]*Entry) []Entry {
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

// Top returns the n heaviest entries, weight-descending (ties broken by
// stack key, so the order is total).
func Top(entries []Entry, n int) []Entry {
	out := append([]Entry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Key() < out[j].Key()
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// EncodeFoldedText renders entries in the folded text format, one
// "stack weight" line each. Entries are re-canonicalized (merged + sorted)
// first, so the output is deterministic regardless of input order.
func EncodeFoldedText(entries []Entry) []byte {
	var sb strings.Builder
	for _, e := range canonicalize(entries) {
		sb.WriteString(e.Key())
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatUint(e.Weight, 10))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// canonicalize merges duplicate stacks and sorts by key.
func canonicalize(entries []Entry) []Entry {
	byKey := map[string]*Entry{}
	for _, e := range entries {
		key := e.Key()
		if cur, ok := byKey[key]; ok {
			cur.Weight += e.Weight
			continue
		}
		c := e
		c.Frames = append(profdata.Context(nil), e.Frames...)
		byKey[key] = &c
	}
	return sortEntries(byKey)
}

// validFuncName rejects names that would collide with the folded syntax.
// MiniLang identifiers (and the synthetic names probes generate) never
// contain these bytes, so the encoding is total over real profiles.
func validFuncName(s string) bool {
	return s != "" && !strings.ContainsAny(s, ";: \t@\r\n")
}

// parseSite parses "2" or "2.1" as a LocKey, requiring the canonical
// rendering (no leading zeros, plus signs, or empty discriminators) so that
// parse -> encode is the identity on accepted inputs.
func parseSite(s string) (profdata.LocKey, error) {
	idStr, discStr, hasDisc := strings.Cut(s, ".")
	id, err := parseCanonicalInt32(idStr)
	if err != nil {
		return profdata.LocKey{}, err
	}
	loc := profdata.LocKey{ID: id}
	if hasDisc {
		disc, err := parseCanonicalInt32(discStr)
		if err != nil {
			return profdata.LocKey{}, err
		}
		if disc == 0 {
			return profdata.LocKey{}, fmt.Errorf("non-canonical zero discriminator in %q", s)
		}
		loc.Disc = disc
	}
	return loc, nil
}

func parseCanonicalInt32(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad site %q", s)
	}
	if s != strconv.FormatInt(v, 10) {
		return 0, fmt.Errorf("non-canonical site %q", s)
	}
	return int32(v), nil
}
