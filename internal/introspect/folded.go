// Package introspect makes profiles inspectable: folded-stack (flamegraph-
// collapsed) export in a deterministic text encoding, a context-trie walker
// with inclusive/exclusive weights, and the HTTP serving daemon behind
// `csspgo serve`. Per-function probe coverage is quality.Coverage.
package introspect

import (
	"bytes"
	"fmt"
	"slices"
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
func (e Entry) Key() string { return string(e.appendKey(nil)) }

// appendKey appends the folded-stack key to dst.
func (e Entry) appendKey(dst []byte) []byte {
	for i, f := range e.Frames {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, f.Func...)
		if i != len(e.Frames)-1 {
			dst = f.Site.AppendTo(append(dst, ':'))
		}
	}
	return dst
}

// Folded flattens a profile into folded-stack entries: one entry per
// calling context (weight = the context's body samples) plus one
// single-frame entry per base function profile (flat residue). A context
// has at least two frames, so no two entries share a stack; the result is
// sorted by stack key, so the export is deterministic for any map
// iteration order. The entries' frames share one backing array.
func Folded(p *profdata.Profile) []Entry {
	frames := len(p.Funcs)
	for _, fp := range p.Contexts {
		frames += len(fp.Context)
	}
	backing := make(profdata.Context, 0, frames)
	entries := make([]Entry, 0, len(p.Funcs)+len(p.Contexts))
	add := func(ctx profdata.Context, w uint64) {
		if w == 0 {
			return
		}
		start := len(backing)
		backing = append(backing, ctx...)
		e := Entry{Frames: backing[start:len(backing):len(backing)], Weight: w}
		// The leaf frame's site is meaningless; clear it so re-parsed
		// entries compare equal.
		e.Frames[len(e.Frames)-1].Site = profdata.LocKey{}
		entries = append(entries, e)
	}
	for name, fp := range p.Funcs {
		add(profdata.Context{{Func: name}}, fp.TotalSamples)
	}
	for _, fp := range p.Contexts {
		add(fp.Context, fp.TotalSamples)
	}
	return canonicalize(entries)
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
// "stack weight" line each, merged by stack and sorted by key, so the
// output is deterministic regardless of input order. Entries already in
// that order, as Folded returns them, are written as they are into a
// buffer of the exact size.
func EncodeFoldedText(entries []Entry) []byte {
	size, ok := foldedSize(entries)
	if !ok {
		entries = canonicalize(entries)
		size, _ = foldedSize(entries)
	}
	out := make([]byte, 0, size)
	for _, e := range entries {
		out = append(e.appendKey(out), ' ')
		out = append(strconv.AppendUint(out, e.Weight, 10), '\n')
	}
	return out
}

// foldedSize returns the length of the folded text of entries, and
// whether they are canonical: each key greater than the one before it.
func foldedSize(entries []Entry) (size int, canonical bool) {
	var prev, cur []byte
	var digits [20]byte
	canonical = true
	for i, e := range entries {
		cur = e.appendKey(cur[:0])
		if i > 0 && bytes.Compare(prev, cur) >= 0 {
			canonical = false
		}
		size += len(cur) + len(" \n") + len(strconv.AppendUint(digits[:0], e.Weight, 10))
		prev, cur = cur, prev
	}
	return size, canonical
}

// canonicalize returns entries merged by stack (weights summed, the first
// entry's frames kept) and sorted by key; entries itself is left as it
// was, and the result shares its frames. Every key is rendered once, into
// one buffer.
func canonicalize(entries []Entry) []Entry {
	var keys []byte
	ends := make([]int, len(entries))
	for i, e := range entries {
		keys = e.appendKey(keys)
		ends[i] = len(keys)
	}
	key := func(i int) []byte {
		if i == 0 {
			return keys[:ends[0]]
		}
		return keys[ends[i-1]:ends[i]]
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
	out := make([]Entry, 0, len(entries))
	for k, i := range order {
		if k > 0 && bytes.Equal(key(i), key(order[k-1])) {
			out[len(out)-1].Weight += entries[i].Weight
			continue
		}
		out = append(out, entries[i])
	}
	return out
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
